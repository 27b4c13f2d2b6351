(* The refinement-checking daemon.

   `ubc serve --socket PATH` turns the cold-start batch checker into a
   long-lived service: one process owns the request queue, the
   verdict cache and the checker workers, and serves checking requests
   over a Unix-domain socket speaking the framed JSON protocol of
   [Wire].  The shape is a single-threaded event loop:

     accept/read ----> request queue ----> checks ----> replies
       (select)       (bounded, FIFO)      (in-process batch, or
                                             [jobs] persistent workers)

   - *Admission control*: the queue is bounded ([queue_limit]); a
     request that arrives when it is full gets an immediate
     [Overloaded] reply instead of unbounded buffering.  Clients see
     the rejection in microseconds and can back off; the server's
     memory stays flat no matter how hard it is hammered.

   - *Repeats*: every request is one task.  With a journal ([cache]),
     each task looks up its verdict just before it would run, so a
     repeat of a query already checked is answered from the journal,
     even one queued behind it in the same batch.

   - *Deadlines*: a request's [deadline_s] rides the pool's per-task
     timeout machinery ([Pool.run_task]'s ITIMER_REAL envelope), so a
     hard query costs its own budget, never the whole batch's.

   - *Graceful drain*: SIGTERM/SIGINT (or a [Shutdown] request) stops
     intake, finishes every queued task, flushes replies, removes the
     socket file and exits 0.

   - *Workers*: with [jobs = 1] every check runs in the daemon.  Batches
     run synchronously in the loop: while a batch runs, new connections
     wait in the kernel backlog and new bytes sit in socket buffers.
     [batch_max] bounds how long the loop stays away from [select],
     which caps reply latency under load.  With [jobs > 1] the daemon
     spawns [jobs] persistent [Pool] workers at startup that live as
     long as it does.  Tasks stream to them over pipes, at most
     [Pool.worker_slots] in flight per worker, and the result pipes sit
     in the same [select] as the clients.  A worker that dies answers [crashed] for the task
     it was on and is respawned; the tasks queued behind it still run.
     The journal stays in the front: workers never open it.

   Replies are never written blockingly: each connection carries an
   output queue of encoded frames, drained opportunistically on [send]
   and then whenever [select] reports the peer writable.  A client that
   pipelines a huge burst and does not read its replies until it has
   finished sending (a completely legal use of the protocol) therefore
   fills its own reply queue in server memory instead of wedging the
   event loop in [write] -- the mutual-send deadlock every synchronous
   server has.  Connections that must die after a final error reply
   ([closing]) are closed once their queue drains. *)

module Obs = Ub_obs.Obs
module Pool = Ub_exec.Pool
module Verdict_cache = Ub_refine.Verdict_cache
open Ub_ir

type config = {
  socket_path : string;
  jobs : int; (* persistent worker processes; 1 = check in-process *)
  queue_limit : int; (* admission-control bound *)
  batch_max : int; (* max tasks drained per in-process batch *)
  default_deadline_s : float option; (* applied when a request names none *)
  cache : Ub_exec.Cache.t option;
  verbose : bool;
}

let default_config ~socket_path =
  { socket_path;
    jobs = 1;
    queue_limit = 64;
    batch_max = 32;
    default_deadline_s = None;
    cache = None;
    verbose = false;
  }

(* The server's self-description in hello_ok and stats. *)
let server_name = Printf.sprintf "ubc-serve/%d" Wire.version

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable pending : string; (* bytes read but not yet framed *)
  mutable greeted : bool;
  mutable alive : bool;
  outq : string Queue.t; (* encoded reply frames not yet written *)
  mutable out_off : int; (* bytes of the queue head already written *)
  mutable closing : bool; (* close once [outq] drains; no more reads *)
}

(* What a worker runs: mode, enumeration only?, source, target. *)
type query = Ub_sem.Mode.t * bool * Func.t * Func.t

(* One request, queued until it is answered. *)
type task = {
  t_conn : conn;
  t_id : int option;
  t_enqueued_at : float;
  t_cache_key : string; (* verdict-cache key, built once per request *)
  t_query : query;
  t_deadline : float option;
}

type state = {
  cfg : config;
  started_at : float;
  lfd : Unix.file_descr; (* the listening socket *)
  queue : task Queue.t; (* waiting tasks, in arrival order *)
  mutable pool : (query, Ub_refine.Checker.verdict) Pool.workers option;
      (* [None] when [jobs = 1] *)
  mutable conns : conn list;
  mutable draining : bool;
  mutable shutdown_conns : conn list; (* protocol shutdown requesters awaiting Bye *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_conn st c =
  if c.alive then begin
    c.alive <- false;
    close_quietly c.fd;
    st.conns <- List.filter (fun c' -> c' != c) st.conns
  end

(* Write as much buffered output as the socket accepts right now. *)
let rec flush_conn st c : unit =
  if c.alive then
    match Queue.peek_opt c.outq with
    | None -> if c.closing then close_conn st c
    | Some head -> (
      let len = String.length head - c.out_off in
      match Unix.write_substring c.fd head c.out_off len with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn st c
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn st c
      | n ->
        if n = len then begin
          c.out_off <- 0;
          ignore (Queue.pop c.outq);
          flush_conn st c
        end
        else c.out_off <- c.out_off + n)

let send st c (reply : Wire.reply) : unit =
  if c.alive && not c.closing then begin
    Obs.with_span "serve.reply" @@ fun () ->
    Queue.add (Wire.frame_of_payload (Json.to_string (Wire.reply_to_json reply))) c.outq;
    flush_conn st c
  end

(* For protocol errors whose [Error] reply must still reach the peer:
   stop reading, flush what is buffered, then close. *)
let close_after_flush st c : unit =
  if c.alive then begin
    c.closing <- true;
    flush_conn st c
  end

(* ------------------------------------------------------------------ *)
(* Verdict execution                                                   *)
(* ------------------------------------------------------------------ *)

(* One check.  It runs in the daemon when [jobs = 1] and in a pool
   worker otherwise, in both cases inside the [Pool.run_task] envelope,
   which maps the request deadline onto ITIMER_REAL. *)
let check ((mode, enum, src, tgt) : query) : Ub_refine.Checker.verdict =
  if enum then Ub_refine.Enum_check.check ~mode ~src ~tgt ()
  else Ub_refine.Checker.check mode ~src ~tgt

(* A time rounded to whole nanoseconds, the monotonic clock's
   resolution: a reply's times then print at their first [%.15g] try
   instead of needing up to 17 digits. *)
let to_ns (s : float) : float = Float.round (s *. 1e9) /. 1e9

(* Answer [t], journaling a verdict that did not come from the journal.
   [service_s] is the check's own run time, 0 for a journal hit. *)
let answer st (t : task) ~(cached : bool) (r : Verdict_cache.outcome) (service_s : float) =
  (match (r, st.cfg.cache) with
  | Pool.Done v, Some c when not cached -> Verdict_cache.store c t.t_cache_key v
  | _ -> ());
  Obs.count ("serve.verdict." ^ Verdict_cache.kind r);
  if r = Pool.Timed_out then Obs.count "serve.timeouts";
  send st t.t_conn
    (Wire.make_verdict ~r_id:t.t_id ~cached
       ~wall_s:(to_ns (Obs.Clock.now_s () -. t.t_enqueued_at))
       ~service_s:(to_ns service_s) r)

(* Answer [t] from the journal when it holds the verdict. *)
let journal_hit (st : state) (t : task) : bool =
  let hit = Option.bind st.cfg.cache (fun c -> Verdict_cache.find c t.t_cache_key) in
  Option.iter (fun v -> answer st t ~cached:true (Pool.Done v) 0.0) hit;
  Option.is_some hit

(* [jobs = 1]: drain up to [batch_max] tasks, one by one in this
   process.  Each looks in the journal just before it would run, so a
   repeat of a query checked earlier in the batch is a hit. *)
let run_batch (st : state) : unit =
  Obs.with_span "serve.batch" @@ fun () ->
  for _ = 1 to min st.cfg.batch_max (Queue.length st.queue) do
    let t = Queue.pop st.queue in
    if not (journal_hit st t) then
      let r, service_s = Pool.timed_task ?timeout_s:t.t_deadline check t.t_query in
      answer st t ~cached:false r service_s
  done

(* [jobs > 1]: hand queued tasks to the pool while a worker has a free
   slot. *)
let dispatch (st : state) pool : unit =
  while (not (Queue.is_empty st.queue)) && Pool.has_slot pool do
    let t = Queue.pop st.queue in
    if not (journal_hit st t) then
      Pool.submit pool ?timeout_s:t.t_deadline t.t_query (answer st t ~cached:false)
  done

(* Run what is queued: an in-process batch, or hand-off to workers. *)
let pump (st : state) : unit =
  match st.pool with
  | None -> if not (Queue.is_empty st.queue) then run_batch st
  | Some pool -> dispatch st pool

let worker_fds (st : state) : Unix.file_descr list =
  match st.pool with Some pool -> Pool.fds pool | None -> []

let service_workers (st : state) (ready : Unix.file_descr list) : unit =
  Option.iter (fun pool -> Pool.service pool ready) st.pool

let inflight (st : state) : int =
  match st.pool with Some pool -> Pool.in_flight pool | None -> 0

let stop_workers (st : state) : unit =
  Option.iter Pool.stop st.pool;
  st.pool <- None

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let enqueue_check (st : state) (c : conn) ~(id : int option) ~(deadline_s : float option)
    ((mode, enum, src, tgt) as query : query) : unit =
  let depth = Queue.length st.queue in
  Obs.observe "serve.queue_depth" (float_of_int depth);
  if depth >= st.cfg.queue_limit then begin
    Obs.count "serve.rejected";
    send st c (Wire.Overloaded { r_id = id; queue_depth = depth; queue_limit = st.cfg.queue_limit })
  end
  else
    Queue.add
      { t_conn = c;
        t_id = id;
        t_enqueued_at = Obs.Clock.now_s ();
        t_cache_key =
          Verdict_cache.key ~mode
            ~kind:(if enum then Verdict_cache.enum_kind else Verdict_cache.combined_kind)
            ~src ~tgt ();
        t_query = query;
        t_deadline = (match deadline_s with None -> st.cfg.default_deadline_s | d -> d);
      }
      st.queue

(* Verdicts served, from every [serve.verdict.<kind>] counter. *)
let stats_reply (st : state) : Wire.reply =
  let verdicts =
    List.filter_map
      (fun (k, n) ->
        Option.map (fun kind -> (kind, !n)) (Scanf.sscanf_opt k "serve.verdict.%s%!" Fun.id))
      (Obs.sorted_bindings Obs.counters)
  in
  let hits, misses = Verdict_cache.lookups () in
  Wire.Stats_r
    { queue_depth = Queue.length st.queue;
      queue_limit = st.cfg.queue_limit;
      uptime_s = Obs.Clock.now_s () -. st.started_at;
      served = List.fold_left (fun n (_, k) -> n + k) 0 verdicts;
      rejected = Obs.counter_value "serve.rejected";
      timeouts = Obs.counter_value "serve.timeouts";
      cache_hit_rate =
        (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
      cache_hits = hits;
      cache_misses = misses;
      server = server_name;
      verdicts;
      report = Obs.report ();
    }

let parse_one_func (text : string) : (Func.t, string) result =
  match Parser.parse_func_string text with
  | f -> Ok f
  | exception e -> Error (Printexc.to_string e)

let handle_request (st : state) (c : conn) (req : Wire.request) : unit =
  Obs.count "serve.requests";
  match req with
  | Wire.Hello { v; client = _ } ->
    if v <> Wire.version then begin
      send st c
        (Wire.Error_r
           { r_id = None;
             message = Printf.sprintf "unsupported protocol version %d (server speaks %d)" v Wire.version;
           });
      close_after_flush st c
    end
    else begin
      c.greeted <- true;
      send st c
        (Wire.Hello_ok
           { v = Wire.version;
             server = server_name;
             jobs = st.cfg.jobs;
             queue_limit = st.cfg.queue_limit;
           })
    end
  | _ when not c.greeted ->
    send st c (Wire.Error_r { r_id = None; message = "hello handshake required" })
  | Wire.Stats -> send st c (stats_reply st)
  | Wire.Shutdown ->
    st.draining <- true;
    st.shutdown_conns <- c :: st.shutdown_conns
  | Wire.Check cr -> (
    match (Ub_sem.Mode.find cr.Wire.mode, parse_one_func cr.Wire.src, parse_one_func cr.Wire.tgt) with
    | None, _, _ ->
      send st c (Wire.Error_r { r_id = cr.Wire.id; message = "unknown mode " ^ cr.Wire.mode })
    | _, Error e, _ ->
      send st c (Wire.Error_r { r_id = cr.Wire.id; message = "bad src: " ^ e })
    | _, _, Error e ->
      send st c (Wire.Error_r { r_id = cr.Wire.id; message = "bad tgt: " ^ e })
    | Some mode, Ok src, Ok tgt ->
      enqueue_check st c ~id:cr.Wire.id ~deadline_s:cr.Wire.deadline_s
        (mode, cr.Wire.enum_only, src, tgt))

(* A complete frame arrived: JSON-parse it, decode it, dispatch it.
   Malformed *payloads* answer [Error] and leave the connection up (the
   framing is still in sync); malformed *frames* (oversized prefix) are
   handled by the read path, which must close. *)
let handle_payload (st : state) (c : conn) (payload : string) : unit =
  let parsed =
    Obs.with_span "serve.parse" @@ fun () ->
    match Json.of_string payload with
    | Error e -> Error (None, "invalid JSON: " ^ e)
    | Ok j -> Result.map_error (fun e -> (Json.int_field j "id", e)) (Wire.request_of_json j)
  in
  match parsed with
  | Error (r_id, message) ->
    Obs.count "serve.bad_request";
    send st c (Wire.Error_r { r_id; message })
  | Ok req -> Obs.with_span "serve.dispatch" (fun () -> handle_request st c req)

(* Extract as many complete frames as [c.pending] holds. *)
let rec drain_frames (st : state) (c : conn) : unit =
  let n = String.length c.pending in
  if c.alive && (not c.closing) && n >= 4 then begin
    let len = Wire.decode_len (Bytes.unsafe_of_string c.pending) 0 in
    if len > Wire.max_frame_bytes then begin
      (* there is no resyncing a framed stream after a bad prefix *)
      Obs.count "serve.bad_frame";
      send st c
        (Wire.Error_r
           { r_id = None; message = Printf.sprintf "oversized frame (%d bytes)" len });
      close_after_flush st c
    end
    else if n >= 4 + len then begin
      let payload = String.sub c.pending 4 len in
      c.pending <- String.sub c.pending (4 + len) (n - 4 - len);
      handle_payload st c payload;
      drain_frames st c
    end
  end

let read_conn (st : state) (c : conn) : unit =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn st c
  | 0 -> close_conn st c (* EOF: mid-frame bytes in [pending] are simply dropped *)
  | n ->
    c.pending <- c.pending ^ Bytes.sub_string buf 0 n;
    drain_frames st c

(* ------------------------------------------------------------------ *)
(* The accept loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Refuse to clobber a live server's socket; silently replace a stale
   one (a previous daemon that was SIGKILLed could not unlink it). *)
let claim_socket (path : string) : unit =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if live then failwith (Printf.sprintf "socket %s already has a live server" path);
    try Sys.remove path with Sys_error _ -> ()
  end

let run (cfg : config) : unit =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  claim_socket cfg.socket_path;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let st =
    { cfg;
      started_at = Obs.Clock.now_s ();
      lfd;
      queue = Queue.create ();
      pool = None;
      conns = [];
      draining = false;
      shutdown_conns = [];
    }
  in
  let on_signal = Sys.Signal_handle (fun _ -> st.draining <- true) in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let old_int = Sys.signal Sys.sigint on_signal in
  if cfg.verbose then begin
    Printf.printf "ubc serve: listening on %s (jobs=%d queue=%d)\n" cfg.socket_path cfg.jobs
      cfg.queue_limit;
    flush stdout
  end;
  Fun.protect
    ~finally:(fun () ->
      stop_workers st;
      List.iter (fun c -> close_quietly c.fd) st.conns;
      close_quietly lfd;
      (try Sys.remove cfg.socket_path with Sys_error _ -> ());
      (match cfg.cache with Some c -> Ub_exec.Cache.close c | None -> ());
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
  @@ fun () ->
  if cfg.jobs > 1 then
    st.pool <-
      Some
        (Pool.spawn ~jobs:cfg.jobs ~respawn_event:"serve.worker_respawn"
           (* an inherited client connection would stay open at the
              client after the daemon closes it *)
           ~in_child:(fun () -> List.iter close_quietly (lfd :: List.map (fun c -> c.fd) st.conns))
           check);
  let accept_new () =
    Obs.with_span "serve.accept" @@ fun () ->
    let rec go () =
      match Unix.accept lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        st.conns <-
          { fd;
            pending = "";
            greeted = false;
            alive = true;
            outq = Queue.create ();
            out_off = 0;
            closing = false;
          }
          :: st.conns;
        Obs.count "serve.accepts";
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    in
    go ()
  in
  let stop = ref false in
  while not !stop do
    if not st.draining then begin
      let rfds =
        (lfd :: worker_fds st)
        @ List.filter_map (fun c -> if c.closing then None else Some c.fd) st.conns
      in
      let wfds =
        List.filter_map
          (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
          st.conns
      in
      (match Unix.select rfds wfds [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, writable, _ ->
        if List.mem lfd ready then accept_new ();
        service_workers st ready;
        List.iter
          (fun c ->
            if c.alive && List.mem c.fd writable then flush_conn st c;
            if c.alive && (not c.closing) && List.mem c.fd ready then read_conn st c)
          st.conns);
      pump st
    end
    else begin
      (* drain: no more intake; finish everything queued and in flight,
         stop the workers, ack pending shutdown requests, flush every
         reply queue, and leave *)
      while (not (Queue.is_empty st.queue)) || inflight st > 0 do
        pump st;
        if inflight st > 0 then
          match Unix.select (worker_fds st) [] [] 0.5 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ -> service_workers st ready
      done;
      stop_workers st;
      List.iter (fun c -> send st c Wire.Bye) (List.rev st.shutdown_conns);
      st.shutdown_conns <- [];
      let flush_deadline = Obs.Clock.now_s () +. 5.0 in
      let rec final_flush () =
        let pending =
          List.filter (fun c -> c.alive && not (Queue.is_empty c.outq)) st.conns
        in
        if pending <> [] && Obs.Clock.now_s () < flush_deadline then begin
          (match Unix.select [] (List.map (fun c -> c.fd) pending) [] 0.5 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | _, writable, _ ->
            List.iter
              (fun c -> if c.alive && List.mem c.fd writable then flush_conn st c)
              pending);
          final_flush ()
        end
      in
      final_flush ();
      stop := true
    end
  done
