(* The `serve` workload: a daemon forked with [Server.run] (one job, a
   fresh journal), driven over [conns] connections the way
   `ubc hunt --daemon` drives it.  Checker work per request is
   small (pool pairs with at most 4 bits of choice), so the wire, the
   admission queue, batching, sessions and the journal take the time.

   The traffic has the shape of the hunt client's query stream, as
   `bench.exe --stream-shape 1000` measures it over the hunt workload's
   entries at the committed seed: each connection sends a batch of
   requests pipelined, waits for every reply, then sends the next, with
   batch sizes drawn from the measured ones; and every request is
   distinct, because the hunt names every program apart, so no
   verdict-cache key repeats (a measured repeat share of 0 in 3097
   requests).  A request is a pinned pool pair under a name no other
   request to its daemon uses: the daemon checks it cold and appends its
   verdict to the journal.  Its latency runs from send to reply.

   A daemon is not restarted within its life (see [life_seconds]), so
   a run sees it slow down and grow as its sessions fill, and every run
   covers the same span of that life. *)

open Ub_ir
open Common
module Wire = Ub_serve.Wire
module Client = Ub_serve.Client
module Prng = Ub_support.Prng

(* Two hunt clients share the daemon. *)
let conns = 2

(* (batch size, batches) of the hunt client's stream over programs
   0-999 of each entry: per chunk of 32 programs and per IR lane, the
   pairs the lane changed (mean 13.9, median 9, at most 32). *)
let batch_sizes =
  [ (2, 4); (4, 1); (5, 20); (6, 20); (7, 25); (8, 34); (9, 22); (10, 13); (11, 9); (12, 10);
    (13, 1); (14, 1); (15, 1); (22, 1); (23, 1); (24, 3); (25, 2); (26, 6); (27, 4); (28, 7);
    (29, 3); (30, 2); (31, 1); (32, 32) ]

(* Batches in one pass, over both connections: about 780 requests.
   The machine's speed is probed between passes, while no request is in
   flight. *)
let pass_batches = 56

(* A daemon's life: from an empty journal it serves the measured stream
   once, every batch size exactly as often as the hunt client sent it
   (3097 requests in 223 batches), in an order drawn from the seed for
   that life, so seeds and lives move requests around and not the mix.
   A run of S seconds is S / [life_seconds] lives of fresh daemons
   (about [life_seconds] each on a 2-vCPU VM), so every run covers the
   same stretch of a daemon's life however fast the machine is.

   A daemon pauses for about 100 ms once or twice a life, so the
   percentiles are over every request of every life.  Replaying one
   stream in every life and taking each request's median over the lives
   made latency_ms_p99 jump between about 55 and 90 ms on one seed, as a
   pause did or did not land on the same requests in most lives; and one
   order for the whole run moved the percentiles by 10-17% between
   seeds.  Past about 8000 requests a daemon falls off a cliff (120
   requests/s, 480 MiB) whose onset varies too much between runs to
   measure steadily. *)
let life_seconds = 2

type base = {
  b_pair : Pairs.pair;
  b_args : Types.t list;
  (* the printed functions around their name, so a request can be
     renamed without printing again *)
  b_src : string * string;
  b_tgt : string * string;
  b_cex : (string list, int) Hashtbl.t; (* each counterexample seen, and how often *)
}

let split_name (text : string) : string * string =
  let at = String.index text '@' in
  let paren = String.index_from text at '(' in
  (String.sub text 0 (at + 1), String.sub text paren (String.length text - paren))

let text (pre, post) name = pre ^ name ^ post


(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; dir : string; socket : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Daemons still running, killed on the way out whatever happens, and
   the pid of every daemon ever started (the self-test checks that all
   of them are gone). *)
let live : daemon list ref = ref []
let started : int list ref = ref []

let rec waitpid_eintr pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let reap (d : daemon) =
  (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ ->
    (* still up after a shutdown request: give it a moment, then kill *)
    let t0 = now () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () -. t0 < 5.0 ->
        Unix.sleepf 0.02;
        wait ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_eintr d.pid)
      | _ -> ()
    in
    wait ()
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  rm_rf d.dir;
  live := List.filter (fun d' -> d'.pid <> d.pid) !live

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (waitpid_eintr d.pid) with Unix.Unix_error _ -> ());
      rm_rf d.dir)
    !live;
  live := []

let () = at_exit kill_all

let start_daemon ~(dir : string) : daemon =
  rm_rf dir;
  Ub_exec.Cache.mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let parent = Unix.getpid () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* the daemon keeps its own aggregates, untraced, and drains (then
       exits) as soon as the benchmark process is gone *)
    Obs.set_sink Obs.Null;
    Obs.reset ();
    ignore
      (Thread.create
         (fun () ->
           while Unix.getppid () = parent do
             Thread.delay 0.2
           done;
           Unix.kill (Unix.getpid ()) Sys.sigterm)
         ());
    let code =
      try
        let cfg =
          { (Ub_serve.Server.default_config ~socket_path:socket) with
            Ub_serve.Server.jobs = 1;
            cache = Some (Ub_exec.Cache.open_journal (Filename.concat dir "journal"));
          }
        in
        Ub_serve.Server.run cfg;
        0
      with _ -> 3
    in
    Unix._exit code
  | pid ->
    let d = { pid; dir; socket } in
    live := d :: !live;
    started := pid :: !started;
    d

(* Connect once the daemon listens (bind and listen are not atomic). *)
let connect (d : daemon) : Client.t =
  let t0 = now () in
  let rec go () =
    match Client.connect ~client:"perfbench" ~socket_path:d.socket () with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
      if now () -. t0 > 10.0 then raise e
      else begin
        Unix.sleepf 0.005;
        go ()
      end
  in
  go ()

(* The daemon's Obs report, as layers. *)
let daemon_report (c : Client.t) : Common.Json.t = (Client.stats c).Wire.report

(* ------------------------------------------------------------------ *)
(* The stream                                                          *)
(* ------------------------------------------------------------------ *)

type classes = { mutable coalesced : int; mutable journal : int; mutable replies : int }

let setup ~(path : string) ~(seed : int) ~(dir : string) : Workload.inst =
  let tuples = Array.of_list (Expand.load ~path ~pool:"serve") in
  if Array.length tuples = 0 then failwith "pool.tsv: empty pool serve";
  let bases =
    Array.map
      (fun tu ->
        let p = Expand.pair_of tu in
        let src = Pairs.parse p.Pairs.src in
        { b_pair = p;
          b_args = List.map snd src.Func.args;
          b_src = split_name p.Pairs.src;
          b_tgt = split_name p.Pairs.tgt;
          b_cex = Hashtbl.create 4;
        })
      tuples
  in
  let rng = Prng.create ~seed:(0x5E7E + seed) in
  let classes = { coalesced = 0; journal = 0; replies = 0 } in
  let wait_s = ref 0.0 in
  let send (c : Client.t) ~(id : int) (name, b) =
    let base = bases.(b) in
    Client.send c
      (Wire.Check
         { Wire.id = Some id;
           mode = base.b_pair.Pairs.mode.Ub_sem.Mode.name;
           src = text base.b_src name;
           tgt = text base.b_tgt name;
           deadline_s = None;
           enum_only = false;
         })
  in
  (* Send [batches] (lists of (id, (name, base))) over the connections,
     batch j on connection j mod [conns], each connection's in order: a
     connection sends its next batch once every request of the last one
     is answered.  Which connection (and so which daemon session) sees a
     request does not depend on timing.  The warm-up ([warm]) leaves the
     counterexamples to replay alone. *)
  let run ?(warm = false) (cl : Client.t array) (t : tally) (batches : (int * (string * int)) list list) =
    let queues = Array.init (Array.length cl) (fun _ -> Queue.create ()) in
    List.iteri (fun j b -> Queue.push b queues.(j mod Array.length cl)) batches;
    let inflight = Hashtbl.create 64 and owner = Array.make (Array.length cl) 0 in
    let feed ci =
      if owner.(ci) = 0 && not (Queue.is_empty queues.(ci)) then
        List.iter
          (fun (id, r) ->
            Hashtbl.replace inflight id (r, now (), ci);
            owner.(ci) <- owner.(ci) + 1;
            send cl.(ci) ~id r)
          (Queue.pop queues.(ci))
    in
    Array.iteri (fun ci _ -> feed ci) cl;
    let fds = Array.to_list (Array.map (fun (c : Client.t) -> c.Client.fd) cl) in
    let answer ci =
      let reply = Client.recv cl.(ci) in
      let done_at = now () in
      let id =
        match reply with
        | Some (Wire.Verdict { r_id; _ } | Wire.Overloaded { r_id; _ } | Wire.Error_r { r_id; _ }) ->
          r_id
        | _ -> None
      in
      (match Option.bind id (fun i -> Option.map (fun x -> (i, x)) (Hashtbl.find_opt inflight i)) with
      | None ->
        fail t "serve: reply without a known id";
        (* a closed connection answers nothing more *)
        if reply = None && owner.(ci) > 0 then begin
          Hashtbl.filter_map_inplace (fun _ ((_, _, c) as x) -> if c = ci then None else Some x) inflight;
          t.attempted <- t.attempted + owner.(ci);
          fail t ~n:owner.(ci) "serve: the daemon closed a connection";
          owner.(ci) <- 0
        end
      | Some (idx, ((name, b), sent, _)) ->
        Hashtbl.remove inflight idx;
        owner.(ci) <- owner.(ci) - 1;
        let base = bases.(b) in
        let ms = (done_at -. sent) *. 1000.0 in
        let label = Printf.sprintf "%s/%s" name base.b_pair.Pairs.label in
        match reply with
        | Some (Wire.Verdict v) -> (
          if not warm then begin
            classes.replies <- classes.replies + 1;
            if v.Wire.coalesced then classes.coalesced <- classes.coalesced + 1
            else if v.Wire.cached then classes.journal <- classes.journal + 1
          end;
          match cls_of_name v.Wire.verdict with
          | Some got ->
            record t ~label ~idx ~want:base.b_pair.Pairs.want ~got ~ms;
            if got = Unknown then count_unknown t v.Wire.detail;
            if got = Cex && not warm then
              Hashtbl.replace base.b_cex v.Wire.args
                (1 + Option.value ~default:0 (Hashtbl.find_opt base.b_cex v.Wire.args))
          | None ->
            t.attempted <- t.attempted + 1;
            latency t ~idx ~ms;
            fail t (Printf.sprintf "%s: %s (%s)" label v.Wire.verdict v.Wire.detail))
        | Some (Wire.Overloaded _) ->
          t.attempted <- t.attempted + 1;
          fail t (label ^ ": rejected")
        | _ ->
          t.attempted <- t.attempted + 1;
          fail t (label ^ ": error reply"));
      feed ci
    in
    while Hashtbl.length inflight > 0 do
      let w0 = now () in
      let ready =
        Workload.span "bench.wait" (fun () ->
            match Unix.select fds [] [] 30.0 with
            | r, _, _ -> Some r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)
      in
      if not warm then wait_s := !wait_s +. (now () -. w0);
      match ready with
      | None -> ()
      | Some [] ->
        t.attempted <- t.attempted + Hashtbl.length inflight;
        fail t ~n:(Hashtbl.length inflight) "serve: no reply for 30s";
        Hashtbl.reset inflight
      | Some fds' ->
        Array.iteri (fun ci (c : Client.t) -> if List.mem c.Client.fd fds' then answer ci) cl
    done
  in
  (* A fresh daemon with an empty journal, warmed up on a fixed stream
     under names the measured stream never uses. *)
  let boot () =
    let d = start_daemon ~dir in
    let cl = Array.init conns (fun _ -> connect d) in
    let warm =
      List.init 8 (fun j ->
          List.init 8 (fun i ->
              let k = (8 * j) + i in
              (k, (Printf.sprintf "w%d" k, k mod Array.length bases))))
    in
    run ~warm:true cl (new_tally ()) warm;
    (d, cl, connect d)
  in
  let rss = ref 0.0 in
  let retire (d, cl, stats) =
    rss := Float.max !rss (peak_rss_mb d.pid);
    (try Client.shutdown stats with _ -> ());
    Array.iter Client.close cl;
    reap d
  in
  let cur = ref (Some (boot ())) in
  let daemon () =
    match !cur with
    | Some x -> x
    | None ->
      let x = boot () in
      cur := Some x;
      x
  in
  (* A life's stream, in passes of [pass_batches] batches: request k is
     pool pair [order.(k mod bases)] under the name "r<k>", and each
     batch covers the requests after the last one's. *)
  let draw () =
    let order = Prng.shuffle rng (Array.init (Array.length bases) Fun.id) in
    let sizes =
      Prng.shuffle rng
        (Array.of_list (List.concat_map (fun (s, c) -> List.init c (fun _ -> s)) batch_sizes))
    in
    let next = ref 0 in
    let batch (s : int) =
      let b =
        List.init s (fun i ->
            let k = !next + i in
            (k, (Printf.sprintf "r%d" k, order.(k mod Array.length order))))
      in
      next := !next + s;
      b
    in
    List.init
      ((Array.length sizes + pass_batches - 1) / pass_batches)
      (fun p ->
        List.init
          (min pass_batches (Array.length sizes - (p * pass_batches)))
          (fun j -> batch sizes.((p * pass_batches) + j)))
  in
  (* The first [n] requests of a stream, in its batches: the traced
     run's pass. *)
  let take n =
    let stream = draw () in
    let rec go n = function
      | b :: rest when n > 0 ->
        let b = List.filteri (fun i _ -> i < n) b in
        b :: go (n - List.length b) rest
      | _ -> []
    in
    go n (List.concat stream)
  in
  let last = ref (let _, _, stats = daemon () in report_layers (daemon_report stats)) in
  let pass (t : tally) (batches : (int * (string * int)) list list) =
    let _, cl, stats = daemon () in
    let before = report_layers (daemon_report stats) in
    let t0 = now () in
    run cl t batches;
    let t1 = now () in
    Calib.probes 3;
    end_pass ~serial:false t ~t0 ~t1;
    last := delta_layers ~before ~after:(report_layers (daemon_report stats))
  in
  (* Life [n]: a stream of its own, pass by pass, then the daemon is
     retired.  Its requests are units of their own, numbered apart from
     every other life's, so the percentiles are over every request of
     the run. *)
  let life (t : tally) (n : int) =
    let unit_of (k, r) = ((n lsl 20) + k, r) in
    List.iter (fun p -> pass t (List.map (List.map unit_of) p)) (draw ());
    Option.iter retire !cur;
    cur := None
  in
  { (* about one pass: the mean batch is 13.9 requests *)
    Workload.pass_units = pass_batches * 14;
    measure =
      (fun t budget ->
        Calib.probes 3;
        match budget with
        | Workload.Units n -> pass t (take n)
        | Workload.Seconds s ->
          for n = 1 to max 1 (int_of_float s / life_seconds) do
            life t n
          done);
    unit = None;
    verify =
      (fun t ->
        Array.iter
          (fun b ->
            let p = b.b_pair in
            Hashtbl.iter
              (fun args hits ->
                let ok =
                  p.Pairs.want = Cex
                  &&
                  match List.map2 value_of_string b.b_args args with
                  | values when List.for_all Option.is_some values ->
                    replay_cex p.Pairs.mode ~src:(Pairs.parse p.Pairs.src)
                      ~tgt:(Pairs.parse p.Pairs.tgt) (List.map Option.get values)
                  | _ | (exception Invalid_argument _) -> false
                in
                if p.Pairs.want = Cex && not ok then begin
                  fail t ~n:hits (p.Pairs.label ^ ": counterexample did not replay");
                  t.got_cex <- t.got_cex - hits
                end)
              b.b_cex)
          bases);
    layers = (fun () -> !last);
    extra =
      (fun () ->
        let r = float_of_int classes.replies in
        Pairs.count_pass (Array.map (fun b -> b.b_pair) bases)
        @ [ m "serve.coalesced_ratio" "ratio" (ratio (float_of_int classes.coalesced) r);
            m "serve.journal_hit_ratio" "ratio" (ratio (float_of_int classes.journal) r);
            m "client.wait_s" "s" !wait_s ]);
    extra_rss_mb = (fun () -> !rss);
    teardown =
      (fun () ->
        Option.iter retire !cur;
        cur := None);
  }
