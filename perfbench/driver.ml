(* Runs one workload untraced or traced and computes its metrics; the
   command line and the result line are bench.ml's. *)

open Common

(* Run artifacts (the daemon's journal and socket, the trace) live here,
   relative to the directory the benchmark runs in. *)
let run_dir = ".perfbench"

let workloads = [ "expand"; "search"; "hunt"; "serve" ]

(* [data] holds pool.tsv; [pool] picks the expand pool. *)
let setup_of ~(workload : string) ~(data : string) ~(pool : string) ~(seed : int) :
    unit -> Workload.inst =
  let path = Filename.concat data "pool.tsv" in
  match workload with
  | "expand" -> fun () -> Expand.setup ~path ~pool ~seed
  | "search" -> fun () -> Search.setup ~seed
  | "hunt" -> fun () -> Hunt_load.setup ~seed
  | "serve" ->
    fun () ->
      Serve_load.setup ~path ~seed
        ~dir:(Filename.concat run_dir (Printf.sprintf "serve-%d" (Unix.getpid ())))
  | w -> invalid_arg ("unknown workload " ^ w)

let end_to_end (t : tally) ~(setup_s : float) ~(rss : float) : metric list =
  let n = float_of_int (max 1 t.attempted) in
  [ m "throughput_per_s" "1/s" (throughput t);
    m "latency_ms_p50" "ms" (latency_pct t 0.50);
    m "latency_ms_p90" "ms" (latency_pct t 0.90);
    m "latency_ms_p99" "ms" (latency_pct t 0.99);
    m "decided_ratio" "ratio" (float_of_int t.decided /. n);
    m "success_ratio" "ratio" (Float.max 0.0 (1.0 -. (float_of_int t.failed /. n)));
    m "recall" "ratio"
      (if t.want_cex = 0 then 1.0 else float_of_int t.got_cex /. float_of_int t.want_cex);
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MiB" rss ]

(* Every per-layer metric, read from the layers' own aggregates ([l]),
   the tally and what only the workload knows ([extra]); a layer the
   workload does not touch reads 0.  [pass_s], the traced pass's wall
   time, is the base for every share. *)
let per_layer (l : layers) (t : tally) ~(extra : metric list) ~(pass_s : float)
    ~(overhead : float) : metric list =
  let s = l.span_s and c n = float_of_int (l.counter n) in
  let mean n = ratio (l.hist_sum n) (float_of_int (l.hist_n n)) in
  let solve = s "smt.solve" +. s "smt.session.solve" in
  let unknown k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.unknowns k)) in
  let given name u =
    match List.find_opt (fun x -> x.m_name = name) extra with Some x -> x | None -> m name u 0.0
  in
  let hit = c "verdict_cache.hit" and miss = c "verdict_cache.miss" in
  [ m "refine.check_sat_s" "s" (s "refine.check_sat");
    m "refine.encode_s" "s" (Float.max 0.0 (s "refine.check_sat" -. solve));
    m "smt.circuit_nodes" "count" (mean "smt.circuit_nodes");
    given "refine.universal_assignments" "count";
    given "refine.count_s" "s";
    m "refine.enum_s" "s" (s "refine.enum_check");
    m "refine.enum_fallbacks" "count" (float_of_int (l.span_n "refine.enum_check"));
    m "refine.unknown.budget_bits" "count" (unknown "budget_bits");
    m "refine.unknown.conflicts" "count" (unknown "conflicts");
    m "refine.unknown.unsupported" "count" (unknown "unsupported");
    m "smt.solve_s" "s" solve;
    m "smt.cnf_vars" "count" (mean "smt.cnf_vars");
    m "smt.cnf_clauses" "count" (mean "smt.cnf_clauses");
    m "sat.conflicts" "count" (c "solver.conflicts");
    m "sat.decisions" "count" (c "solver.decisions");
    m "sat.propagations" "count" (c "solver.propagations");
    m "sat.restarts" "count" (c "solver.restarts");
    m "sat.propagations_per_s" "1/s" (ratio (c "solver.propagations") solve);
    m "session.answer_hits" "count" (c "session.answer_hits");
    m "session.verdict_hits" "count" (c "session.verdict_hits");
    m "session.vars_shared" "count" (c "session.vars_shared");
    m "opt.pipeline_s" "s" (s "hunt.optimize");
    m "hunt.generate_s" "s" (s "hunt.generate");
    m "hunt.check_s" "s" (s "hunt.check");
    m "hunt.shrink_s" "s" (s "hunt.shrink");
    m "hunt.findings" "count" (c "hunt.finding");
    given "hunt.unique" "count";
    given "shrink.oracle_calls" "count";
    m "backend.isel_s" "s" (s "backend.isel");
    m "backend.regalloc_s" "s" (s "backend.regalloc");
    m "backend.tv_s" "s" (s "backend.tv");
    m "tv.checked" "count" (c "tv.checked");
    m "tv.violations" "count" (c "tv.violations");
    m "pool.tasks" "count" (c "pool.task_done" +. c "pool.task_crashed" +. c "pool.task_timeout");
    m "pool.task_s" "s" (s "pool.task");
    m "pool.task_crashed" "count" (c "pool.task_crashed");
    m "pool.task_timeout" "count" (c "pool.task_timeout");
    m "verdict_cache.hit" "count" hit;
    m "verdict_cache.miss" "count" miss;
    m "verdict_cache.store" "count" (c "verdict_cache.store");
    m "verdict_cache.hit_ratio" "ratio" (ratio hit (hit +. miss));
    m "serve.parse_s" "s" (s "serve.parse");
    m "serve.dispatch_s" "s" (s "serve.dispatch");
    m "serve.batch_s" "s" (s "serve.batch");
    m "serve.reply_s" "s" (s "serve.reply");
    m "serve.queue_depth_p50" "count" (l.hist_p50 "serve.queue_depth");
    given "client.wait_s" "s";
    given "serve.coalesced_ratio" "ratio";
    given "serve.journal_hit_ratio" "ratio";
    m "serve.rejected" "count" (c "serve.rejected");
    m "serve.timeouts" "count" (c "serve.timeouts");
    m "trace.pass_s" "s" pass_s;
    m "trace.overhead_ratio" "ratio" overhead ]

let correct (t : tally) = t.failed = 0 && t.got_cex = t.want_cex && t.attempted > 0

type outcome = { ok : bool; tally : tally; metrics : metric list }

(* Set up five times (setup_s is the median; the last instance is
   measured), measure for the budget, verify. *)
let untraced ~(setup : unit -> Workload.inst) ~(budget : Workload.budget) : outcome =
  let times = ref [] and inst = ref None in
  for _ = 1 to 5 do
    Option.iter (fun (i : Workload.inst) -> i.Workload.teardown ()) !inst;
    Calib.probes 3;
    let t0 = now () in
    inst := Some (setup ());
    times := (t0, now ()) :: !times
  done;
  Calib.probes 3;
  (* each set-up at reference speed, from the probes on either side *)
  let times = List.map (fun (t0, t1) -> Calib.scale ~t:((t0 +. t1) /. 2.0) (t1 -. t0)) !times in
  let inst = Option.get !inst in
  let t = new_tally () in
  Fun.protect ~finally:inst.Workload.teardown (fun () ->
      inst.Workload.measure t budget;
      inst.Workload.verify t);
  let rss = peak_rss_mb (Unix.getpid ()) +. inst.Workload.extra_rss_mb () in
  { ok = correct t; tally = t; metrics = end_to_end t ~setup_s:(median times) ~rss }

(* Tracing on or off: the Obs sink and the bench.* spans. *)
let set_tracing (events : Obs.event list ref) (on : bool) =
  Workload.traced := on;
  Obs.set_sink (if on then Obs.Memory events else Obs.Null)

(* The tracing overhead, and then the per-layer figures of one traced
   pass on a fresh instance.  Where units run one by one, every unit of
   a pass runs untraced and traced back to back, in alternating order,
   so the ratio does not drift with the machine; otherwise (serve) it
   compares a whole untraced pass with the traced one.  [units]
   shortens the passes. *)
let traced ?units ~(setup : unit -> Workload.inst) ~(trace_path : string) () : outcome =
  let n (i : Workload.inst) = Option.value ~default:i.Workload.pass_units units in
  let events = ref [] in
  let ta = new_tally () and tb = new_tally () in
  let a = setup () in
  let paired =
    Fun.protect
      ~finally:(fun () ->
        set_tracing events false;
        a.Workload.teardown ())
      (fun () ->
        let r =
          match a.Workload.unit with
          | None ->
            a.Workload.measure ta (Workload.Units (n a));
            None
          | Some unit ->
            let spent = [| 0.0; 0.0 |] in
            for i = 0 to n a - 1 do
              List.iter
                (fun on ->
                  set_tracing events on;
                  let t0 = now () in
                  unit (if on then tb else ta) (i mod a.Workload.pass_units);
                  let k = if on then 1 else 0 in
                  spent.(k) <- spent.(k) +. (now () -. t0))
                (if i mod 2 = 0 then [ false; true ] else [ true; false ])
            done;
            Some (spent.(1) /. spent.(0))
        in
        a.Workload.verify ta;
        r)
  in
  let b = setup () in
  let metrics =
    Fun.protect ~finally:b.Workload.teardown (fun () ->
        Obs.reset ();
        events := [];
        let layers, extra =
          Fun.protect
            ~finally:(fun () -> set_tracing events false)
            (fun () ->
              set_tracing events true;
              b.Workload.measure tb (Workload.Units (n b));
              let layers = b.Workload.layers () in
              (layers, b.Workload.extra ()))
        in
        Out_channel.with_open_text trace_path (fun oc ->
            List.iter
              (fun e ->
                output_string oc (Obs.event_to_json e);
                output_char oc '\n')
              (List.rev !events));
        b.Workload.verify tb;
        let pass_s = pass_wall (List.hd tb.passes) in
        let overhead = match paired with Some r -> r | None -> pass_s /. pass_wall (List.hd ta.passes) in
        per_layer layers tb ~extra ~pass_s ~overhead)
  in
  let t = new_tally () in
  List.iter
    (fun (x : tally) ->
      t.attempted <- t.attempted + x.attempted;
      t.failed <- t.failed + x.failed;
      t.notes <- t.notes @ x.notes)
    [ ta; tb ];
  { ok = correct ta && correct tb; tally = t; metrics }
