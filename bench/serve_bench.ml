(* T-SERVE | the daemon load generator behind `bench serve`.

   Measures what the serve subsystem exists to deliver: amortizing the
   cold-start cost of the checker across a stream of small queries.
   Two sides over the *same* 200-query corpus, run [rounds] times each
   in alternation, with the >=5x gate on the ratio of the two sides'
   median throughputs:

   - the spawn baseline: one `ubc check` process per query, the way a
     fuzzing harness would drive the batch tool (exec, parse, warm the
     solver stack, check, exit);
   - the daemon: one `ubc serve` instance, a fresh daemon on a fresh
     journal each round, queries pipelined over a few client
     connections, per-request latency stamped at send and reply.

   The corpus is seeded and deliberately repetitive (200 queries drawn
   from a smaller unique set), so it also measures the daemon's verdict
   journal, which answers every repeat of a checked query.  Verdicts from both runs are compared against
   an in-process ground truth; any disagreement fails the run.

   Results go to BENCH_serve.json: every run's throughput, the medians,
   the speedup, and, from the last daemon round, exact p50/p95/p99
   latency percentiles (computed from the 200 samples, not histogram
   buckets), per-reply serving-class counts
   (journal hit / cold -- stamped from the reply flags, so
   the overload burst cannot pollute them), a warm re-pass over the
   unique pairs, and the daemon's closing stats report.

   With [jobs > 1], a second experiment measures worker scaling: a
   fresh 3,000-query corpus (renamed variants of the unique pairs, so
   every variant is distinct cache work) pipelined into a jobs-1 daemon
   and into a jobs-[jobs] one, [rounds] times each in alternation,
   and the speedup compares the two sides' median throughputs.  Verdicts
   from every run must match the in-process ground truth.  The >=1.5x
   scaling gate is core-aware: workers are processes, so on a machine
   with fewer cores than jobs the QPS cannot scale and the gate is
   recorded but not enforced (gate_enforced=false in the JSON). *)

open Ub_ir
open Ub_sem
module Json = Ub_obs.Json
module Wire = Ub_serve.Wire
module Client = Ub_serve.Client

let n_queries = 200
let n_conns = 4
let required_speedup = 5.0

(* Runs per side of each gate: one run on a shared machine can land on
   a burst of outside load and decide the gate alone. *)
let rounds = 3

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

type pair = { p_src : Func.t; p_tgt : Func.t; p_src_text : string; p_tgt_text : string }

(* ------------------------------------------------------------------ *)
(* Corpus: unique pairs from the seeded fuzz generator, filtered to    *)
(* queries the checker answers quickly (the daemon's target workload   *)
(* is streams of small queries; slow outliers measure the solver, not  *)
(* the serving overhead), then sampled with repetition to [n_queries]. *)
(* ------------------------------------------------------------------ *)

let build_corpus () : pair array * int array * Ub_refine.Checker.verdict array =
  let fns = Ub_fuzz.Gen.random_corpus ~seed:2026 ~size:60 in
  let candidates =
    List.map
      (fun fn ->
        let tgt = Ub_opt.Pass.run_pipeline Ub_opt.Pass.prototype Ub_opt.Pipeline.fuzz_passes fn in
        { p_src = fn;
          p_tgt = tgt;
          p_src_text = Printer.func_to_string fn;
          p_tgt_text = Printer.func_to_string tgt;
        })
      fns
  in
  (* ground truth + fast-filter in one pass *)
  let keep = ref [] in
  List.iter
    (fun p ->
      let t0 = Ub_obs.Obs.Clock.now_s () in
      let v = Ub_refine.Checker.check Mode.proposed ~src:p.p_src ~tgt:p.p_tgt in
      let dt = Ub_obs.Obs.Clock.elapsed_s ~since:t0 in
      if dt < 0.15 && List.length !keep < 40 then keep := (p, v) :: !keep)
    candidates;
  let unique = Array.of_list (List.rev !keep) in
  if Array.length unique = 0 then failwith "serve bench: empty corpus";
  let prng = Ub_support.Prng.create ~seed:7 in
  let picks = Array.init n_queries (fun _ -> Ub_support.Prng.int prng (Array.length unique)) in
  (Array.map fst unique, picks, Array.map snd unique)

(* A reply agrees with the ground truth when it is a verdict of the
   same kind. *)
let agrees (truth : Ub_refine.Checker.verdict) (r : Ub_refine.Verdict_cache.outcome) : bool =
  Ub_refine.Verdict_cache.kind r = Ub_refine.Verdict_cache.kind (Ub_exec.Pool.Done truth)

let no_reply : Ub_refine.Verdict_cache.outcome = Ub_exec.Pool.Crashed "no reply"

(* ------------------------------------------------------------------ *)
(* Spawn baseline                                                      *)
(* ------------------------------------------------------------------ *)

let find_ubc () : string option =
  (* bench runs as _build/default/bench/main.exe; ubc is its sibling *)
  let guess =
    Filename.concat
      (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
      "ubc.exe"
  in
  if Sys.file_exists guess then Some guess else None

let write_tmp_pairs (dir : string) (unique : pair array) : (string * string) array =
  Array.mapi
    (fun i p ->
      let sp = Filename.concat dir (Printf.sprintf "src_%02d.ll" i) in
      let tp = Filename.concat dir (Printf.sprintf "tgt_%02d.ll" i) in
      let write path text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write sp p.p_src_text;
      write tp p.p_tgt_text;
      (sp, tp))
    unique

(* One `ubc check` process per query, sequentially -- the cold-start
   path a harness without the daemon pays.  Returns (wall, refines?). *)
let run_spawn_baseline (ubc : string) (files : (string * string) array) (picks : int array) :
    float * bool array =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let refines = Array.make (Array.length picks) false in
  let t0 = Ub_obs.Obs.Clock.now_s () in
  Array.iteri
    (fun qi u ->
      let sp, tp = files.(u) in
      let pid =
        Unix.create_process ubc
          [| ubc; "check"; "--mode"; "proposed"; sp; tp |]
          Unix.stdin devnull devnull
      in
      let rec wait () =
        try Unix.waitpid [] pid
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      match snd (wait ()) with
      | Unix.WEXITED 0 -> refines.(qi) <- true
      | _ -> refines.(qi) <- false)
    picks;
  Unix.close devnull;
  (Ub_obs.Obs.Clock.elapsed_s ~since:t0, refines)

(* Fallback when the ubc binary has not been built: fork per query and
   replay the same cold path (parse from disk, fresh check) in the
   child.  Noted in the JSON -- it under-counts exec+startup cost, so a
   speedup against it is conservative. *)
let run_fork_baseline (files : (string * string) array) (picks : int array) :
    float * bool array =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let refines = Array.make (Array.length picks) false in
  let t0 = Ub_obs.Obs.Clock.now_s () in
  Array.iteri
    (fun qi u ->
      let sp, tp = files.(u) in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
        Ub_obs.Obs.child_begin ();
        let code =
          try
            let one p = List.hd (Parser.parse_module (read p)).Func.funcs in
            match Ub_refine.Checker.check Mode.proposed ~src:(one sp) ~tgt:(one tp) with
            | Ub_refine.Checker.Refines -> 0
            | _ -> 1
          with _ -> 3
        in
        Unix._exit code
      | pid -> (
        let rec wait () =
          try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        match snd (wait ()) with
        | Unix.WEXITED 0 -> refines.(qi) <- true
        | _ -> refines.(qi) <- false))
    picks;
  (Ub_obs.Obs.Clock.elapsed_s ~since:t0, refines)

(* ------------------------------------------------------------------ *)
(* Daemon run                                                          *)
(* ------------------------------------------------------------------ *)

let start_daemon ~(jobs : int) ~(dir : string) : string * int =
  let socket_path = Filename.concat dir "serve.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* the child must not share the parent's trace channel/registry *)
    Ub_obs.Obs.child_begin ();
    (try
       let cache = Ub_exec.Cache.open_journal (Filename.concat dir "cache") in
       let cfg =
         { (Ub_serve.Server.default_config ~socket_path) with
           Ub_serve.Server.jobs;
           queue_limit = 256;
           batch_max = 64;
           cache = Some cache;
         }
       in
       Ub_serve.Server.run cfg;
       Unix._exit 0
     with _ -> Unix._exit 3)
  | pid ->
    let rec wait_sock n =
      if n > 200 then failwith "serve bench: daemon did not come up"
      else if Sys.file_exists socket_path then ()
      else begin
        Unix.sleepf 0.05;
        wait_sock (n + 1)
      end
    in
    wait_sock 0;
    (socket_path, pid)

(* Ask the daemon to drain, then reap it. *)
let stop_daemon (socket_path : string) (pid : int) : unit =
  Client.with_conn ~socket_path (fun cl ->
      Client.send cl Wire.Shutdown;
      match Client.recv cl with Some Wire.Bye | None -> () | Some _ -> ());
  let rec reap () =
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

(* How each reply was served, stamped from the reply's own flags --
   counting at the reply (not from the daemon's cumulative counters)
   keeps the burst and probe traffic below out of these numbers. *)
type reply_classes = { mutable rc_journal : int; mutable rc_cold : int }

(* Pipeline the corpus over [n_conns] connections and stamp per-request
   latency as replies arrive (select across the connections, so a slow
   connection cannot skew the others' timestamps). *)
let run_daemon_load (socket_path : string) (unique : pair array) (picks : int array) :
    float * float array * Ub_refine.Verdict_cache.outcome array * reply_classes =
  let conns = Array.init n_conns (fun _ -> Client.connect ~socket_path ()) in
  let send_t = Array.make (Array.length picks) 0.0 in
  let recv_t = Array.make (Array.length picks) 0.0 in
  let verdicts = Array.make (Array.length picks) no_reply in
  let t0 = Ub_obs.Obs.Clock.now_s () in
  Array.iteri
    (fun qi u ->
      let p = unique.(u) in
      let cl = conns.(qi mod n_conns) in
      send_t.(qi) <- Ub_obs.Obs.Clock.now_s ();
      Client.send cl
        (Wire.Check
           { Wire.id = Some qi;
             mode = "proposed";
             src = p.p_src_text;
             tgt = p.p_tgt_text;
             deadline_s = None;
             enum_only = false;
           }))
    picks;
  let outstanding = ref (Array.length picks) in
  let classes = { rc_journal = 0; rc_cold = 0 } in
  let fd_of i = (conns.(i) : Client.t).Client.fd in
  while !outstanding > 0 do
    let fds = List.init n_conns fd_of in
    match Unix.select fds [] [] 5.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "serve bench: daemon stalled (5s without a reply)"
    | ready, _, _ ->
      List.iter
        (fun fd ->
          match Wire.recv_reply fd with
          | Some (Wire.Verdict v) -> (
            match v.Wire.r_id with
            | Some qi when qi >= 0 && qi < Array.length picks ->
              recv_t.(qi) <- Ub_obs.Obs.Clock.now_s ();
              verdicts.(qi) <- v.Wire.result;
              if v.Wire.cached then classes.rc_journal <- classes.rc_journal + 1
              else classes.rc_cold <- classes.rc_cold + 1;
              decr outstanding
            | _ -> failwith "serve bench: reply without a usable id")
          | Some (Wire.Overloaded _) -> failwith "serve bench: rejected during timed run"
          | Some _ -> failwith "serve bench: unexpected reply"
          | None -> failwith "serve bench: daemon closed the connection")
        ready
  done;
  let wall = Ub_obs.Obs.Clock.elapsed_s ~since:t0 in
  Array.iter Client.close conns;
  let lat = Array.init (Array.length picks) (fun i -> recv_t.(i) -. send_t.(i)) in
  (wall, lat, verdicts, classes)

(* Re-send every unique pair once after the timed run: every pair with
   a *cacheable* verdict was journaled above, so those must all hit
   (Unknown verdicts are never cached -- they depend on the budget --
   and legitimately re-run).  Returns (journal_hits, total). *)
let run_warm_pass (socket_path : string) (unique : pair array) : int * int =
  Client.with_conn ~socket_path (fun cl ->
      let hits = ref 0 in
      Array.iter
        (fun p ->
          match
            Client.check cl ~mode:"proposed" ~src:p.p_src_text ~tgt:p.p_tgt_text ()
          with
          | Wire.Verdict v when v.Wire.cached -> incr hits
          | _ -> ())
        unique;
      (!hits, Array.length unique))

(* A deliberate overload: pipeline more requests than the queue admits
   on one connection and count the rejections.  Every request is a
   *distinct* pair (the function renamed per index) so the verdict
   cache cannot answer it -- each one is real work and the queue
   genuinely fills. *)
let run_overload_burst (socket_path : string) (unique : pair array) : int * int =
  let p = unique.(0) in
  let cl = Client.connect ~socket_path () in
  let n = 800 in
  for i = 0 to n - 1 do
    let rename fn = Printer.func_to_string { fn with Func.name = Printf.sprintf "b%03d" i } in
    Client.send cl
      (Wire.Check
         { Wire.id = Some i;
           mode = "proposed";
           src = rename p.p_src;
           tgt = rename p.p_tgt;
           deadline_s = Some 0.1;
           enum_only = false;
         })
  done;
  let rejected = ref 0 and answered = ref 0 in
  for _ = 1 to n do
    match Client.recv cl with
    | Some (Wire.Overloaded _) -> incr rejected
    | Some (Wire.Verdict _) -> incr answered
    | Some _ | None -> failwith "serve bench: burst reply missing"
  done;
  Client.close cl;
  (!rejected, !answered)

(* ------------------------------------------------------------------ *)
(* Jobs scaling experiment                                             *)
(* ------------------------------------------------------------------ *)

let scale_queries = 3_000
let scale_required = 1.5

(* Workers are processes: the scaling gate only means something when the
   machine can actually run them in parallel.  Counted from
   /proc/cpuinfo (portable enough for the linux runners this targets);
   1 on any failure, which keeps the gate honest -- it can only
   under-claim parallelism, never invent it. *)
let ncores () : int =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> 1
  | text ->
    let n =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
      |> List.length
    in
    max 1 n

(* [scale_queries] renamed copies of the unique pairs.  Renaming changes
   the verdict-cache key but not the verdict, so the base pair's ground
   truth carries over.  Every query is DISTINCT on purpose: repeated
   queries are answered by the journal, front-side work
   that cannot scale with workers and is already measured by the daemon
   experiment above. *)
let build_scale_corpus (unique : pair array) (truth : Ub_refine.Checker.verdict array) :
    (string * string) array * Ub_refine.Checker.verdict array =
  let n = Array.length unique in
  let texts =
    Array.init scale_queries (fun i ->
        let p = unique.(i mod n) in
        let name = Printf.sprintf "v%05d" i in
        ( Printer.func_to_string { p.p_src with Func.name },
          Printer.func_to_string { p.p_tgt with Func.name } ))
  in
  (texts, Array.init scale_queries (fun i -> truth.(i mod n)))

(* Pipeline the corpus over one connection, keeping half the daemon's
   advertised queue in flight so admission control never rejects. *)
let run_scale_load (socket_path : string) (texts : (string * string) array) :
    float * Ub_refine.Verdict_cache.outcome array =
  Client.with_conn ~client:"ubc-bench" ~socket_path @@ fun cl ->
  let window = max 1 (cl.Client.queue_limit / 2) in
  let n = Array.length texts in
  let verdicts = Array.make n no_reply in
  let sent = ref 0 in
  let send_next () =
    let src, tgt = texts.(!sent) in
    Client.send cl
      (Wire.Check
         { Wire.id = Some !sent; mode = "proposed"; src; tgt; deadline_s = None;
           enum_only = false });
    incr sent
  in
  let t0 = Ub_obs.Obs.Clock.now_s () in
  while !sent < min window n do
    send_next ()
  done;
  for _ = 1 to n do
    (match Client.recv cl with
    | Some (Wire.Verdict { r_id = Some qi; result; _ }) when qi >= 0 && qi < n ->
      verdicts.(qi) <- result
    | Some (Wire.Overloaded _) -> failwith "serve bench: rejected during the scaling run"
    | Some _ -> failwith "serve bench: unexpected reply in the scaling run"
    | None -> failwith "serve bench: daemon closed the connection");
    if !sent < n then send_next ()
  done;
  (Ub_obs.Obs.Clock.elapsed_s ~since:t0, verdicts)

(* One daemon at [jobs] on a fresh directory (a cold journal), so both
   runs pay the same cache costs.  Returns wall, verdicts and the
   daemon's closing stats. *)
let run_scale_once ~(jobs : int) ~(dir : string) (texts : (string * string) array) :
    float * Ub_refine.Verdict_cache.outcome array * Wire.stats_reply =
  Unix.mkdir dir 0o755;
  let socket_path, pid = start_daemon ~jobs ~dir in
  let wall, verdicts = run_scale_load socket_path texts in
  let stats = Client.with_conn ~socket_path Client.stats in
  stop_daemon socket_path pid;
  (wall, verdicts, stats)

(* The same corpus against a jobs-1 daemon and a jobs-[jobs] one,
   [rounds] times each, alternating, so load that comes and goes
   on the machine falls on both sides.  Verdict agreement with ground
   truth is always enforced, the >=[scale_required]x gate on the ratio
   of the sides' median throughputs only when the machine has the cores
   to scale (recorded either way).  Returns the JSON block and
   pass/fail. *)
let run_scale ~(jobs : int) ~(dir : string) (unique : pair array)
    (truth : Ub_refine.Checker.verdict array) : Json.t * bool =
  let texts, truth_v = build_scale_corpus unique truth in
  let cores = ncores () in
  Printf.printf "scaling corpus: %d distinct queries; machine: %d core(s)\n%!" scale_queries
    cores;
  let mismatches verdicts =
    let bad = ref 0 in
    Array.iteri (fun qi r -> if not (agrees truth_v.(qi) r) then incr bad) verdicts;
    !bad
  in
  let measure round j =
    let wall, verdicts, stats =
      run_scale_once ~jobs:j
        ~dir:(Filename.concat dir (Printf.sprintf "scale-j%d-%d" j round))
        texts
    in
    let qps = float_of_int scale_queries /. wall in
    Printf.printf "scaling: round %d, jobs %d: %.2fs wall, %.1f queries/s\n%!" round j wall qps;
    (qps, mismatches verdicts, stats)
  in
  let runs =
    List.init rounds (fun round ->
        let one = measure round 1 in
        (one, measure round jobs))
  in
  let ones = List.map fst runs and ns = List.map snd runs in
  let qps runs = List.map (fun (q, _, _) -> q) runs in
  let bad runs = List.fold_left (fun n (_, b, _) -> n + b) 0 runs in
  let qps_1 = median (qps ones) and qps_n = median (qps ns) in
  let bad_1 = bad ones and bad_n = bad ns in
  let _, _, stats_n = List.nth ns (rounds - 1) in
  let wall_1 = float_of_int scale_queries /. qps_1
  and wall_n = float_of_int scale_queries /. qps_n in
  let speedup = qps_n /. qps_1 in
  let verdicts_match = bad_1 = 0 && bad_n = 0 in
  let gate_enforced = cores >= jobs in
  Printf.printf "scaling: %.2fx at jobs %d (medians of %d runs a side)\n%!" speedup jobs
    rounds;
  let num f = Json.Num f in
  let int = Json.int in
  let j =
    Json.Obj
      [ ("jobs", int jobs);
        ("queries", int scale_queries);
        ("distinct_queries", Json.Bool true);
        ("cores", int cores);
        ("rounds", int rounds);
        ("wall_1job_s", num wall_1);
        ("qps_1job", num qps_1);
        ("qps_1job_runs", Json.List (List.map num (qps ones)));
        ("wall_njobs_s", num wall_n);
        ("qps_njobs", num qps_n);
        ("qps_njobs_runs", Json.List (List.map num (qps ns)));
        ("speedup", num speedup);
        ("required_speedup", num scale_required);
        ("gate_enforced", Json.Bool gate_enforced);
        ("verdicts_match", Json.Bool verdicts_match);
        ("mismatches_1job", int bad_1);
        ("mismatches_njobs", int bad_n);
        ("stats", Wire.reply_to_json (Wire.Stats_r stats_n));
      ]
  in
  let ok =
    if not verdicts_match then begin
      Printf.printf "SCALE-MISMATCH: %d + %d verdict disagreement(s) vs ground truth\n" bad_1
        bad_n;
      false
    end
    else if gate_enforced && speedup < scale_required then begin
      Printf.printf "SCALE-TOO-SLOW: %.2fx < required %.1fx at jobs %d on %d cores\n" speedup
        scale_required jobs cores;
      false
    end
    else begin
      Printf.printf "SCALE-OK: identical verdicts, %.2fx at jobs %d%s\n" speedup jobs
        (if gate_enforced then "" else " (gate not enforced: too few cores)");
      true
    end
  in
  (j, ok)

(* ------------------------------------------------------------------ *)
(* Percentiles (exact, from the recorded samples)                      *)
(* ------------------------------------------------------------------ *)

let percentile (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let run ~(jobs : int) ~(out : string) : bool =
  let dir = Filename.temp_file "ub_serve_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () ->
  Printf.printf "building corpus (seeded, unique pairs sampled to %d queries)...\n%!" n_queries;
  let unique, picks, truth = build_corpus () in
  Printf.printf "corpus: %d unique pairs, %d queries\n%!" (Array.length unique) n_queries;
  let files = write_tmp_pairs dir unique in
  let baseline_kind, spawn =
    match find_ubc () with
    | Some ubc ->
      Printf.printf "baseline: spawning %s per query\n%!" ubc;
      ("spawn-ubc", fun () -> run_spawn_baseline ubc files picks)
    | None ->
      Printf.printf "baseline: bin/ubc.exe not built; fork-per-query fallback\n%!";
      ("fork-self", fun () -> run_fork_baseline files picks)
  in
  let qps wall = float_of_int n_queries /. wall in
  (* --- [rounds] alternating rounds of baseline, then daemon; each
     round's daemon is fresh on a fresh journal, and the last one stays
     up for the warm pass, the burst and the probes below --- *)
  let runs =
    List.init rounds (fun round ->
        let ((wall, _) as spawn_run) = spawn () in
        Printf.printf "baseline (%s): round %d: %.2fs wall, %.1f queries/s\n%!" baseline_kind
          round wall (qps wall);
        let rdir = Filename.concat dir (Printf.sprintf "serve-%d" round) in
        Unix.mkdir rdir 0o755;
        let socket_path, pid = start_daemon ~jobs ~dir:rdir in
        let ((wall, _, _, _) as load) = run_daemon_load socket_path unique picks in
        Printf.printf "daemon: round %d: %.2fs wall, %.1f queries/s\n%!" round wall (qps wall);
        if round < rounds - 1 then stop_daemon socket_path pid;
        (spawn_run, load, (socket_path, pid)))
  in
  let spawn_runs = List.map (fun (s, _, _) -> s) runs
  and serve_runs = List.map (fun (_, l, _) -> l) runs in
  let _, (_, latencies, _, classes), (socket_path, daemon_pid) = List.nth runs (rounds - 1) in
  let spawn_qps_runs = List.map (fun (w, _) -> qps w) spawn_runs
  and serve_qps_runs = List.map (fun (w, _, _, _) -> qps w) serve_runs in
  let spawn_qps = median spawn_qps_runs and serve_qps = median serve_qps_runs in
  let spawn_wall = float_of_int n_queries /. spawn_qps
  and serve_wall = float_of_int n_queries /. serve_qps in
  (* snapshot the journal-cache counters *before* the warm pass and the
     burst: the burst's 800 deliberately-distinct pairs are all misses
     and used to crater the reported hit rate to a meaningless ~0.5% *)
  let stats_load = Client.with_conn ~socket_path (fun cl -> Client.stats cl) in
  let warm_hits, warm_total = run_warm_pass socket_path unique in
  let warm_expected =
    (* a pair only reaches the journal if the timed run actually picked
       it AND its verdict is cacheable (Unknowns never cache) *)
    let picked = Array.make (Array.length unique) false in
    Array.iter (fun u -> picked.(u) <- true) picks;
    let n = ref 0 in
    Array.iteri
      (fun i v ->
        match v with
        | Ub_refine.Checker.Unknown _ -> ()
        | _ -> if picked.(i) then incr n)
      truth;
    !n
  in
  let rejected, burst_answered = run_overload_burst socket_path unique in
  (* one deliberately deadline-exceeded query so the timeout path shows
     up in the stats report -- a fresh (uncached) wide-multiply pair the
     checker cannot settle in 100ms *)
  let timed_out =
    let src =
      "define i64 @hard(i64 %x, i64 %y) {\ne:\n  %m = mul i64 %x, %y\n  ret i64 %m\n}"
    and tgt =
      "define i64 @hard(i64 %x, i64 %y) {\ne:\n  %m = mul i64 %y, %x\n  ret i64 %m\n}"
    in
    Client.with_conn ~socket_path (fun cl ->
        match Client.check cl ~deadline_s:0.1 ~mode:"proposed" ~src ~tgt () with
        | Wire.Verdict { result = Ub_exec.Pool.Timed_out; _ } -> true
        | _ -> false)
  in
  let stats = Client.with_conn ~socket_path (fun cl -> Client.stats cl) in
  stop_daemon socket_path daemon_pid;
  (* --- jobs scaling (after the first daemon is down: the runs should
     not compete with it for cores) --- *)
  let scale_block =
    if jobs <= 1 then None
    else begin
      Printf.printf "\nscaling: jobs 1 vs jobs %d (gate: >=%.1fx)\n%!" jobs scale_required;
      Some (run_scale ~jobs ~dir unique truth)
    end
  in
  (* --- verdict agreement, every round of both sides --- *)
  let mismatches = ref 0 in
  List.iter2
    (fun (_, spawn_refines) (_, _, serve_verdicts, _) ->
      Array.iteri
        (fun qi u ->
          if not (agrees truth.(u) serve_verdicts.(qi)) then incr mismatches;
          if spawn_refines.(qi) <> (truth.(u) = Ub_refine.Checker.Refines) then incr mismatches)
        picks)
    spawn_runs serve_runs;
  let verdicts_match = !mismatches = 0 in
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let p50 = percentile sorted 0.50
  and p95 = percentile sorted 0.95
  and p99 = percentile sorted 0.99 in
  let speedup = serve_qps /. spawn_qps in
  let load_hit_rate =
    let h = stats_load.Wire.cache_hits and m = stats_load.Wire.cache_misses in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  Printf.printf
    "baseline: median %.2fs wall, %.1f queries/s\n\
     daemon: median %.2fs wall, %.1f queries/s (%.1fx baseline, medians of %d runs a side)\n\
     latency: p50 %.2fms  p95 %.2fms  p99 %.2fms\n\
     replies: %d journal hit(s), %d cold (of %d)\n\
     journal during load: %d hit(s) / %d miss(es) (%.0f%% hit rate)\n\
     warm pass: %d/%d hits (%d of %d pairs are cacheable; unknowns never cache)\n\
     rejected in burst: %d/%d  deadline timeout observed: %b\n%!"
    spawn_wall spawn_qps serve_wall serve_qps speedup rounds (1000.0 *. p50) (1000.0 *. p95) (1000.0 *. p99)
    classes.rc_journal classes.rc_cold n_queries
    stats_load.Wire.cache_hits stats_load.Wire.cache_misses (100.0 *. load_hit_rate)
    warm_hits warm_total warm_expected warm_total rejected (rejected + burst_answered)
    timed_out;
  (* --- the JSON record --- *)
  let num f = Json.Num f in
  let int = Json.int in
  let j =
    Json.Obj
      ([ ("schema", Json.Str "ubc-serve-bench-v3");
         ("queries", int n_queries);
         ("unique_pairs", int (Array.length unique));
         ("jobs", int jobs);
         ("rounds", int rounds);
         ( "baseline",
           Json.Obj
             [ ("kind", Json.Str baseline_kind); ("wall_s", num spawn_wall);
               ("qps", num spawn_qps);
               ("qps_runs", Json.List (List.map num spawn_qps_runs)) ] );
         ( "serve",
           Json.Obj
             [ ("wall_s", num serve_wall); ("qps", num serve_qps);
               ("qps_runs", Json.List (List.map num serve_qps_runs));
               ("p50_ms", num (1000.0 *. p50)); ("p95_ms", num (1000.0 *. p95));
               ("p99_ms", num (1000.0 *. p99));
               ("rejected", int stats.Wire.rejected);
               ("timeouts", int stats.Wire.timeouts);
               (* per-reply serving classes for the timed run only --
                  the reply flags, not the daemon's cumulative counters,
                  so burst/probe traffic cannot skew them *)
               ( "replies",
                 Json.Obj
                   [ ("journal_hits", int classes.rc_journal);
                     ("cold", int classes.rc_cold) ] );
               ("cache_hits", int stats_load.Wire.cache_hits);
               ("cache_misses", int stats_load.Wire.cache_misses);
               ("cache_hit_rate", num load_hit_rate);
               ( "warm_pass",
                 Json.Obj
                   [ ("queries", int warm_total); ("journal_hits", int warm_hits);
                     ("cacheable", int warm_expected) ] );
               ("burst_rejected", int rejected);
               ("deadline_timeout_observed", Json.Bool timed_out) ] );
         ("speedup", num speedup);
         ("required_speedup", num required_speedup);
         ("verdicts_match", Json.Bool verdicts_match);
         ("server_report", stats.Wire.report);
       ]
      @ match scale_block with None -> [] | Some (sj, _) -> [ ("scaling", sj) ])
  in
  Json.to_file out j;
  Printf.printf "wrote %s\n" out;
  let warm_ok = warm_hits = warm_expected in
  let scale_ok = match scale_block with None -> true | Some (_, ok) -> ok in
  if not verdicts_match then begin
    Printf.printf "SERVE-MISMATCH: %d verdict disagreement(s) between daemon/baseline/direct\n"
      !mismatches;
    false
  end
  else if not warm_ok then begin
    Printf.printf
      "SERVE-COLD-CACHE: warm pass hit the journal on %d unique pairs, expected %d\n"
      warm_hits warm_expected;
    false
  end
  else if speedup < required_speedup then begin
    Printf.printf "SERVE-TOO-SLOW: %.1fx < required %.0fx over the spawn baseline\n" speedup
      required_speedup;
    false
  end
  else begin
    Printf.printf "SERVE-OK: identical verdicts, %.1fx the spawn baseline\n" speedup;
    scale_ok
  end
