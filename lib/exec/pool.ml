(* A fork-based worker pool for pure tasks (refinement queries, corpus
   sweeps, the daemon's checks).  There is one forked-worker scheduler:
   [spawn] forks [jobs] persistent workers for a fixed [f]; [submit]
   streams a task to the least-loaded worker over its task pipe, at most
   [worker_slots] in flight per worker; the worker runs it in the
   [run_task] envelope and writes back the result, its run time and the
   telemetry it recorded over its result pipe.  The caller [select]s on
   [fds] next to its own descriptors and hands the ready ones to
   [service], which calls each finished task's continuation.

     - a worker that segfaults, is OOM-killed or exits mid-task loses
       only the task it was on, its oldest in flight: that task is
       [Crashed] with the wait status, and the tasks queued behind it go
       to the worker respawned in its place;
     - a task that exceeds its [timeout_s] is interrupted by SIGALRM
       inside the worker and reported as [Timed_out] without killing it.

   [map_stats ~jobs] runs an array through such workers.  The array is
   inherited by fork, so only task indices cross the pipe, and results
   are collected by index, so the output is deterministic and
   independent of scheduling or [jobs].  With [jobs <= 1] no process is
   forked: tasks run in the calling process with the same per-task
   exception/timeout envelope, so the result array is identical to a
   parallel run (modulo genuine crashes, which in-process necessarily
   take down the run). *)

module Obs = Ub_obs.Obs

type 'b result = Done of 'b | Crashed of string | Timed_out

type stats = {
  jobs : int;
  task_count : int;
  wall_s : float; (* whole-pool wall clock *)
  busy_s : float; (* sum of task run times *)
  crashed : int;
  timed_out : int;
  respawns : int; (* workers forked again after a crash *)
  utilization : float; (* busy / (jobs * wall) *)
}

(* ------------------------------------------------------------------ *)
(* The per-task envelope (used by the workers and the sequential       *)
(* path): catch exceptions, enforce the timeout with ITIMER_REAL.      *)
(* ------------------------------------------------------------------ *)

exception Task_timeout

let set_timer s =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = s })

let run_task ?timeout_s f x : _ result =
  let outcome = function
    | Done _ -> Obs.count "pool.task_done"
    | Crashed _ -> Obs.count "pool.task_crashed"
    | Timed_out -> Obs.count "pool.task_timeout"
  in
  let r =
    match timeout_s with
    | None -> ( try Done (f x) with e -> Crashed (Printexc.to_string e))
    | Some s ->
      (* OCaml runs a signal handler at its next poll point, which can
         come before the [try] below is entered or after it is left (in
         the restore code).  So the handler raises only while [live],
         and a SIGALRM that arrives earlier is caught up on at once. *)
      let fired = ref false and live = ref false in
      let old_handler =
        Sys.signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ ->
               fired := true;
               if !live then begin
                 live := false;
                 raise Task_timeout
               end))
      in
      let t0 = Obs.Clock.now_s () in
      (* If a caller (an enclosing run_task) had a deadline running,
         remember it so we can re-arm what is left of it on the way out.
         Blindly zeroing the timer here used to cancel the outer task's
         timeout for good.  Our own timer is armed inside the envelope:
         a value the kernel refuses (EINVAL) makes this task [Crashed]
         and still restores the handler. *)
      let old_timer = Unix.getitimer Unix.ITIMER_REAL in
      Fun.protect
        ~finally:(fun () ->
          set_timer 0.0;
          Sys.set_signal Sys.sigalrm old_handler;
          if old_timer.Unix.it_value > 0.0 then begin
            let remaining = old_timer.Unix.it_value -. Obs.Clock.elapsed_s ~since:t0 in
            (* an already-expired outer deadline still has to fire *)
            set_timer (if remaining <= 0.0 then 1e-6 else remaining)
          end)
        (fun () ->
          try
            set_timer s;
            live := true;
            if !fired then raise Task_timeout;
            let v = f x in
            live := false;
            Done v
          with
          | Task_timeout -> Timed_out
          | e ->
            live := false;
            Crashed (Printexc.to_string e))
  in
  outcome r;
  r

(* [run_task] in a [pool.task] span, with the seconds it took: a task's
   own run time, wherever it runs. *)
let timed_task ?timeout_s f x : _ result * float =
  let t0 = Obs.Clock.now_s () in
  let r = Obs.with_span "pool.task" (fun () -> run_task ?timeout_s f x) in
  (r, Obs.Clock.elapsed_s ~since:t0)

(* OCaml numbers signals its own way ([Sys.sigkill] is -7) and 5.1 has
   no [Sys.signal_to_string]: name the ones a dying worker shows. *)
let signal_name n =
  match
    List.assoc_opt n
      [ (Sys.sigkill, "SIGKILL"); (Sys.sigsegv, "SIGSEGV"); (Sys.sigabrt, "SIGABRT");
        (Sys.sigbus, "SIGBUS"); (Sys.sigterm, "SIGTERM"); (Sys.sigint, "SIGINT");
        (Sys.sigfpe, "SIGFPE") ]
  with
  | Some name -> name
  | None -> string_of_int n

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited with code %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %s" (signal_name n)
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %s" (signal_name n)

(* waitpid may be interrupted by a signal delivered to the parent (its
   own SIGALRM when pools nest under a timeout); retry, don't crash. *)
let rec waitpid_eintr pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Live-worker registry, for signal-time cleanup                       *)
(* ------------------------------------------------------------------ *)

(* Every forked worker is registered for as long as it is alive, so a
   SIGINT/SIGTERM handler in the CLI can reap the children instead
   of orphaning them.  The registry is keyed per owning pid: a forked
   child inherits the table but must not try to kill its siblings from
   a nested pool. *)
let live_workers : (int, unit) Hashtbl.t = Hashtbl.create 8
let registry_owner = ref (-1)

let register_worker pid =
  let self = Unix.getpid () in
  if !registry_owner <> self then begin
    Hashtbl.reset live_workers;
    registry_owner := self
  end;
  Hashtbl.replace live_workers pid ()

let unregister_worker pid = Hashtbl.remove live_workers pid

(* Kill and reap every live worker.  Safe to call from a signal handler
   context (OCaml runs handlers at safepoints, not in async-signal
   context) and idempotent. *)
let terminate_workers () =
  if !registry_owner = Unix.getpid () then begin
    Hashtbl.iter
      (fun pid () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (waitpid_eintr pid) with Unix.Unix_error _ -> ())
      live_workers;
    Hashtbl.reset live_workers
  end

(* ------------------------------------------------------------------ *)
(* Persistent workers                                                  *)
(* ------------------------------------------------------------------ *)

(* Tasks in flight per worker: one running and one waiting in the pipe,
   so a worker never idles between tasks for a round trip. *)
let worker_slots = 2

type ('a, 'b) task = { timeout_s : float option; x : 'a; k : 'b result -> float -> unit }

type ('a, 'b) worker = {
  idx : int;
  pid : int;
  task_fd : Unix.file_descr; (* write end of the task pipe *)
  res_fd : Unix.file_descr; (* read end of the result pipe *)
  inflight : ('a, 'b) task Queue.t; (* sent and unanswered, in send order *)
}

type ('a, 'b) workers = {
  f : 'a -> 'b;
  in_child : unit -> unit; (* closes what a forked worker must not hold *)
  respawn_event : string;
  mutable ws : ('a, 'b) worker array;
  mutable busy : float; (* summed task run times reported by workers *)
  mutable nrespawn : int;
}

(* A worker: read [(timeout, x)] records until EOF on the task pipe and
   answer each with [(result, run time, telemetry)].  The telemetry is
   recorded into an in-memory sink, never the parent's trace channel. *)
let worker_loop (f : 'a -> 'b) (task_fd : Unix.file_descr) (res_fd : Unix.file_descr) : unit
    =
  Obs.child_begin ();
  let ic = Unix.in_channel_of_descr task_fd in
  let oc = Unix.out_channel_of_descr res_fd in
  let rec loop () =
    match (Marshal.from_channel ic : float option * 'a) with
    | exception End_of_file -> ()
    | timeout_s, x ->
      let r, busy = timed_task ?timeout_s f x in
      Marshal.to_channel oc ((r, busy, Obs.drain ()) : 'b result * float * Obs.payload) [];
      flush oc;
      loop ()
  in
  loop ()

(* Fork worker [idx].  The child inherits every descriptor the parent
   holds and closes all but its own pipe ends at once: an inherited task
   pipe would keep another worker from ever reading EOF, and the
   caller's [in_child] closes the rest (the daemon's listening socket
   and client connections). *)
let spawn_worker (p : ('a, 'b) workers) (idx : int) : ('a, 'b) worker =
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    (* a terminal's ^C reaches the whole process group: the parent
       decides what it means, the workers outlive it until EOF *)
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    close_quietly task_w;
    close_quietly res_r;
    Array.iter
      (fun w ->
        if w.idx <> idx then begin
          close_quietly w.task_fd;
          close_quietly w.res_fd
        end)
      p.ws;
    (try
       p.in_child ();
       worker_loop p.f task_r res_w
     with _ -> Unix._exit 2);
    (* exit without running at_exit handlers inherited from the parent *)
    Unix._exit 0
  | pid ->
    register_worker pid;
    Unix.close task_r;
    Unix.close res_w;
    { idx; pid; task_fd = task_w; res_fd = res_r; inflight = Queue.create () }

let spawn ?(in_child = fun () -> ()) ?(respawn_event = "pool.respawn") ~jobs f =
  let p = { f; in_child; respawn_event; ws = [||]; busy = 0.0; nrespawn = 0 } in
  for i = 0 to max 1 jobs - 1 do
    p.ws <- Array.append p.ws [| spawn_worker p i |]
  done;
  p

let least_loaded p =
  Array.fold_left
    (fun a w -> if Queue.length w.inflight < Queue.length a.inflight then w else a)
    p.ws.(0) p.ws

let has_slot p = Queue.length (least_loaded p).inflight < worker_slots
let in_flight p = Array.fold_left (fun n w -> n + Queue.length w.inflight) 0 p.ws
let fds p = Array.to_list (Array.map (fun w -> w.res_fd) p.ws)

let send (w : ('a, 'b) worker) (t : ('a, 'b) task) : unit =
  let b = Marshal.to_bytes ((t.timeout_s, t.x) : float option * 'a) [] in
  Obs.event "pool.task_dispatch" ~attrs:[ ("worker", Obs.I w.idx) ];
  (* a blocking write: the pipe takes 64 KiB, so only a task larger than
     that, behind a busy worker, waits here for the worker.  A dead
     worker must surface as EOF on its result pipe, not as SIGPIPE here. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let rec write off =
    if off < Bytes.length b then
      match Unix.write w.task_fd b off (Bytes.length b - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_pipe) (fun () -> write 0);
  Queue.push t w.inflight

(* Hand [x] to the least-loaded worker, only when [has_slot]; [service]
   gives [k] its result and the worker's seconds on it (0 if it died). *)
let submit p ?timeout_s x k =
  let w = least_loaded p in
  if Queue.length w.inflight >= worker_slots then invalid_arg "Pool.submit: no free slot";
  send w { timeout_s; x; k }

(* Exact-length reads from the raw result fd.  A buffered channel could
   swallow a second result that [select] would then never report. *)
let rec really_read fd buf off len : bool =
  len = 0
  ||
  match Unix.read fd buf off len with
  | 0 -> false
  | n -> really_read fd buf (off + n) (len - n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf off len
  | exception Unix.Unix_error _ -> false

let read_result (fd : Unix.file_descr) : ('b result * float * Obs.payload) option =
  let hdr = Bytes.create Marshal.header_size in
  if not (really_read fd hdr 0 Marshal.header_size) then None
  else begin
    let body = Marshal.total_size hdr 0 - Marshal.header_size in
    let buf = Bytes.extend hdr 0 body in
    if really_read fd buf Marshal.header_size body then Some (Marshal.from_bytes buf 0)
    else None
  end

(* A result pipe is readable: one result for the oldest in-flight task,
   or EOF because the worker died.  Then that oldest task is the one it
   was on; the ones behind it go to a fresh worker in its slot. *)
let worker_readable p (w : ('a, 'b) worker) : unit =
  match read_result w.res_fd with
  | Some (r, busy, payload) ->
    Obs.absorb payload ~attrs:[ ("worker", Obs.I w.idx) ];
    p.busy <- p.busy +. busy;
    (Queue.pop w.inflight).k r busy
  | None ->
    close_quietly w.task_fd;
    close_quietly w.res_fd;
    let why =
      match waitpid_eintr w.pid with
      | _, status -> describe_status status
      | exception Unix.Unix_error _ -> "worker lost"
    in
    unregister_worker w.pid;
    let lost = Queue.take_opt w.inflight in
    Obs.event "pool.worker_crash" ~attrs:[ ("worker", Obs.I w.idx); ("status", Obs.S why) ];
    Obs.event p.respawn_event ~attrs:[ ("worker", Obs.I w.idx); ("status", Obs.S why) ];
    p.nrespawn <- p.nrespawn + 1;
    let fresh = spawn_worker p w.idx in
    p.ws.(w.idx) <- fresh;
    Queue.iter (send fresh) w.inflight;
    Option.iter
      (fun t ->
        Obs.count "pool.task_crashed";
        t.k (Crashed why) 0.0)
      lost

(* Service the workers whose result pipes are in [ready]. *)
let service p (ready : Unix.file_descr list) : unit =
  Array.iter (fun w -> if List.mem w.res_fd ready then worker_readable p w) (Array.copy p.ws)

let stop p =
  Array.iter
    (fun w ->
      close_quietly w.task_fd;
      close_quietly w.res_fd;
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (waitpid_eintr w.pid) with Unix.Unix_error _ -> ());
      unregister_worker w.pid)
    p.ws;
  p.ws <- [||]

(* ------------------------------------------------------------------ *)
(* Mapping an array                                                    *)
(* ------------------------------------------------------------------ *)

let totals ~jobs ~wall ~busy ~respawns (results : _ result array) : stats =
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
  { jobs;
    task_count = Array.length results;
    wall_s = wall;
    busy_s = busy;
    crashed = count (function Crashed _ -> true | _ -> false);
    timed_out = count (function Timed_out -> true | _ -> false);
    respawns;
    utilization = (if wall > 0.0 then busy /. (float_of_int jobs *. wall) else 1.0);
  }

let sequential ?timeout_s f (xs : 'a array) : 'b result array * stats =
  let t0 = Obs.Clock.now_s () in
  let busy = ref 0.0 in
  let results =
    Array.map
      (fun x ->
        let r, s = timed_task ?timeout_s f x in
        busy := !busy +. s;
        r)
      xs
  in
  (results, totals ~jobs:1 ~wall:(Obs.Clock.elapsed_s ~since:t0) ~busy:!busy ~respawns:0 results)

let map_stats ?(jobs = 1) ?timeout_s (f : 'a -> 'b) (xs : 'a array) :
    'b result array * stats =
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then sequential ?timeout_s f xs
  else begin
    let jobs = min jobs n in
    let t0 = Obs.Clock.now_s () in
    let results = Array.make n (Crashed "task lost by the pool") in
    let p = spawn ~jobs (fun i -> f xs.(i)) in
    Fun.protect ~finally:(fun () -> stop p) (fun () ->
        let next = ref 0 in
        while !next < n || in_flight p > 0 do
          while !next < n && has_slot p do
            let i = !next in
            submit p ?timeout_s i (fun r _ -> results.(i) <- r);
            incr next
          done;
          match Unix.select (fds p) [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ -> service p ready
        done);
    ( results,
      totals ~jobs ~wall:(Obs.Clock.elapsed_s ~since:t0) ~busy:p.busy ~respawns:p.nrespawn
        results )
  end

let map ?jobs ?timeout_s f xs = fst (map_stats ?jobs ?timeout_s f xs)

(* [map_stats] behind a cache the caller owns: [find] is asked in the
   parent first, only the misses reach the workers, and [store] sees
   each [Done] result in the parent, in input order.  A hit comes back
   as [Done]; the stats count only the tasks that ran. *)
let map_cached ?jobs ?timeout_s ~(find : 'a -> 'b option) ~(store : 'a -> 'b -> unit)
    (f : 'a -> 'b) (xs : 'a array) : 'b result array * stats =
  let cached = Array.map find xs in
  let misses =
    Array.of_list
      (List.filter (fun i -> Option.is_none cached.(i)) (List.init (Array.length xs) Fun.id))
  in
  let fresh, stats = map_stats ?jobs ?timeout_s (fun i -> f xs.(i)) misses in
  let results =
    Array.map (function Some v -> Done v | None -> Crashed "task lost by the pool") cached
  in
  Array.iteri
    (fun j r ->
      let i = misses.(j) in
      results.(i) <- r;
      match r with Done v -> store xs.(i) v | Crashed _ | Timed_out -> ())
    fresh;
  (results, stats)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "exec: %d worker(s), %d task(s), wall %.3fs, busy %.3fs, utilization %.1f%%, %d crashed, %d timed out, %d respawn(s)"
    s.jobs s.task_count s.wall_s s.busy_s (100.0 *. s.utilization) s.crashed s.timed_out
    s.respawns
