(* T-SOLVER | the solver benchmark harness behind `bench solver`.

   Runs a fixed, seeded corpus of refinement-checker queries — the
   Section 3 matrix under two semantics modes, an enumerated opt-fuzz
   slice, and handcrafted wide-width identities (i8..i32) — straight
   through [Checker.check_sat], recording per-query wall time and the
   decision-procedure counters (conflicts / decisions / propagations,
   CNF vars / clauses, circuit nodes, peak learned-DB size), the engine
   that decided (CDCL, or exhaustive simulation after the CDCL probe)
   and the blocks it simulated.

   Results go to BENCH_solver.json.  When a baseline recording exists
   (bench/solver_baseline.tsv, captured before the PR-3 solver
   overhaul), the JSON embeds it and reports the geometric-mean
   speedup against it — this file is the perf trajectory of the
   solver stack.  Tasks run through [Ub_exec.Pool], so `-j`/`--timeout`
   apply. *)

open Ub_sem
module Json = Ub_obs.Json

(* The corpus lives in [Ub_corpus] so the regression tests replay the
   exact same queries this benchmark times. *)
type query = Ub_corpus.query = {
  qname : string;
  qmode : string; (* Mode.name *)
  qsrc : Ub_ir.Func.t;
  qtgt : Ub_ir.Func.t;
}

type record = {
  rname : string;
  rmode : string;
  rverdict : string; (* "refines" | "counterexample" | "unknown" *)
  rbudget_exceeded : bool;
  rwall_s : float;
  rnodes : int;
  rvars : int;
  rclauses : int;
  rconflicts : int;
  rdecisions : int;
  rpropagations : int;
  rlearned_peak : int;
  rengine : string; (* Circuit.Cnf.engine_name, or "none" *)
  rsim_blocks : int;
}

(* Per-query conflict ceiling: generous for the corpus, and the number
   the CI smoke asserts no query exceeds. *)
let conflict_budget = 200_000

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let run_query (q : query) : record =
  let mode =
    match Mode.find q.qmode with
    | Some m -> m
    | None -> invalid_arg ("solver bench: unknown mode " ^ q.qmode)
  in
  let stats = ref Ub_smt.Circuit.Cnf.no_stats in
  let time_once () =
    (* monotonic clock: a wall-clock step (NTP, manual adjustment) during
       a min-of-N loop would otherwise produce negative or skewed minima *)
    let t0 = Ub_obs.Obs.Clock.now_s () in
    let verdict =
      Ub_refine.Checker.check_sat ~max_conflicts:conflict_budget ~stats mode ~src:q.qsrc
        ~tgt:q.qtgt
    in
    (Ub_obs.Obs.Clock.elapsed_s ~since:t0, verdict)
  in
  (* Sub-millisecond queries are at the mercy of a single GC pause or
     scheduler hiccup; re-run those a few times and keep the minimum.
     The checker is deterministic, so verdict and counters agree across
     repetitions. *)
  let wall0, verdict = time_once () in
  let wall =
    if wall0 >= 0.005 then wall0
    else begin
      let best = ref wall0 in
      for _ = 1 to 4 do
        let w, _ = time_once () in
        if w < !best then best := w
      done;
      !best
    end
  in
  let vstr, budget_exceeded =
    match verdict with
    | Ub_refine.Checker.Refines -> ("refines", false)
    | Ub_refine.Checker.Counterexample _ -> ("counterexample", false)
    | Ub_refine.Checker.Unknown r -> ("unknown", r = "SAT budget exceeded")
  in
  let s = !stats in
  { rname = q.qname;
    rmode = q.qmode;
    rverdict = vstr;
    rbudget_exceeded = budget_exceeded;
    rwall_s = wall;
    rnodes = s.Ub_smt.Circuit.Cnf.circuit_nodes;
    rvars = s.Ub_smt.Circuit.Cnf.cnf_vars;
    rclauses = s.Ub_smt.Circuit.Cnf.cnf_clauses;
    rconflicts = s.Ub_smt.Circuit.Cnf.conflicts;
    rdecisions = s.Ub_smt.Circuit.Cnf.decisions;
    rpropagations = s.Ub_smt.Circuit.Cnf.propagations;
    rlearned_peak = s.Ub_smt.Circuit.Cnf.learned_peak;
    rengine = Ub_smt.Circuit.Cnf.engine_name s.Ub_smt.Circuit.Cnf.engine;
    rsim_blocks = s.Ub_smt.Circuit.Cnf.sim_blocks;
  }

(* ------------------------------------------------------------------ *)
(* Baseline TSV (one line per query; easy to parse without a JSON dep)  *)
(* ------------------------------------------------------------------ *)

let record_to_tsv (r : record) : string =
  Printf.sprintf "%s\t%s\t%s\t%.6f\t%d\t%d\t%d\t%d\t%d\t%d\t%d" r.rname r.rmode r.rverdict
    r.rwall_s r.rnodes r.rvars r.rclauses r.rconflicts r.rdecisions r.rpropagations
    r.rlearned_peak

let record_of_tsv (line : string) : record option =
  match String.split_on_char '\t' line with
  | [ name; mode; verdict; wall; nodes; vars; clauses; confl; dec; prop; peak ] -> (
    try
      Some
        { rname = name; rmode = mode; rverdict = verdict; rbudget_exceeded = false;
          rwall_s = float_of_string wall; rnodes = int_of_string nodes;
          rvars = int_of_string vars; rclauses = int_of_string clauses;
          rconflicts = int_of_string confl; rdecisions = int_of_string dec;
          rpropagations = int_of_string prop; rlearned_peak = int_of_string peak;
          rengine = "cdcl"; rsim_blocks = 0;
        }
    with _ -> None)
  | _ -> None

let save_baseline path (records : record list) =
  let oc = open_out path in
  output_string oc "# bench solver baseline: name mode verdict wall_s circuit_nodes cnf_vars cnf_clauses conflicts decisions propagations learned_peak\n";
  List.iter (fun r -> output_string oc (record_to_tsv r ^ "\n")) records;
  close_out oc

let load_baseline path : record list =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let records = ref [] in
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           match record_of_tsv line with
           | Some r -> records := r :: !records
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !records
  end

(* ------------------------------------------------------------------ *)
(* Aggregation + JSON                                                   *)
(* ------------------------------------------------------------------ *)

let geomean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ ->
    let logs = List.map (fun x -> log (max x 1e-7)) xs in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))

type summary = {
  n : int;
  wall_total : float;
  wall_geomean : float;
  vars_total : int;
  clauses_total : int;
  conflicts_total : int;
  propagations_total : int;
  learned_peak_max : int;
  over_budget : int;
  simulated : int;
  sim_blocks_total : int;
}

let summarize (records : record list) : summary =
  { n = List.length records;
    wall_total = List.fold_left (fun a r -> a +. r.rwall_s) 0.0 records;
    wall_geomean = geomean (List.map (fun r -> r.rwall_s) records);
    vars_total = List.fold_left (fun a r -> a + r.rvars) 0 records;
    clauses_total = List.fold_left (fun a r -> a + r.rclauses) 0 records;
    conflicts_total = List.fold_left (fun a r -> a + r.rconflicts) 0 records;
    propagations_total = List.fold_left (fun a r -> a + r.rpropagations) 0 records;
    learned_peak_max = List.fold_left (fun a r -> max a r.rlearned_peak) 0 records;
    over_budget = List.fold_left (fun a r -> if r.rbudget_exceeded then a + 1 else a) 0 records;
    simulated = List.length (List.filter (fun r -> r.rengine = "simulation") records);
    sim_blocks_total = List.fold_left (fun a r -> a + r.rsim_blocks) 0 records;
  }

(* A measured float at the resolution the file has always carried. *)
let fixed digits f =
  let scale = 10.0 ** float_of_int digits in
  Json.Num (Float.round (f *. scale) /. scale)

let record_json (r : record) : Json.t =
  Json.Obj
    [ ("name", Json.Str r.rname); ("mode", Json.Str r.rmode); ("verdict", Json.Str r.rverdict);
      ("wall_s", fixed 6 r.rwall_s); ("circuit_nodes", Json.int r.rnodes);
      ("cnf_vars", Json.int r.rvars); ("cnf_clauses", Json.int r.rclauses);
      ("conflicts", Json.int r.rconflicts); ("decisions", Json.int r.rdecisions);
      ("propagations", Json.int r.rpropagations); ("learned_peak", Json.int r.rlearned_peak);
      ("engine", Json.Str r.rengine); ("sim_blocks", Json.int r.rsim_blocks) ]

let summary_json (s : summary) : Json.t =
  Json.Obj
    [ ("queries", Json.int s.n); ("wall_s_total", fixed 6 s.wall_total);
      ("wall_s_geomean", fixed 6 s.wall_geomean); ("cnf_vars_total", Json.int s.vars_total);
      ("cnf_clauses_total", Json.int s.clauses_total);
      ("conflicts_total", Json.int s.conflicts_total);
      ("propagations_total", Json.int s.propagations_total);
      ("learned_peak_max", Json.int s.learned_peak_max); ("over_budget", Json.int s.over_budget);
      ("simulated", Json.int s.simulated); ("sim_blocks_total", Json.int s.sim_blocks_total) ]

(* Each solver layer's share of [smt.solve]'s wall time, from the run's
   span totals (the pool workers' spans are absorbed into them). *)
let layers_json () : Json.t =
  let total name =
    match Hashtbl.find_opt Ub_obs.Obs.spans name with
    | Some s -> float_of_int s.Ub_obs.Obs.s_total_ns /. 1e9
    | None -> 0.0
  in
  let solve = total "smt.solve" in
  Json.Obj
    [ ("smt.solve_s", fixed 6 solve);
      ( "share_of_smt.solve",
        Json.Obj
          (List.map
             (fun l -> (l, fixed 3 (if solve > 0.0 then total l /. solve else 0.0)))
             [ "smt.tseitin"; "sat.search"; "smt.simulate" ]) ) ]

(* Pair up current and baseline records by (name, mode) and compute the
   before/after ratios the acceptance criteria are stated in. *)
let vs_baseline (current : record list) (baseline : record list) : Json.t option =
  let key r = (r.rname, r.rmode) in
  let base = List.map (fun r -> (key r, r)) baseline in
  let paired =
    List.filter_map
      (fun r -> Option.map (fun b -> (r, b)) (List.assoc_opt (key r) base))
      current
  in
  if paired = [] then None
  else begin
    let speedups = List.map (fun ((r : record), b) -> b.rwall_s /. max r.rwall_s 1e-7) paired in
    let sum f = List.fold_left (fun a p -> a + f p) 0 paired in
    let b_vars = sum (fun (_, b) -> b.rvars) and c_vars = sum (fun (r, _) -> r.rvars) in
    let b_cls = sum (fun (_, b) -> b.rclauses) and c_cls = sum (fun (r, _) -> r.rclauses) in
    let shrink before now =
      if before = 0 then 0.0
      else 100.0 *. (1.0 -. (float_of_int now /. float_of_int before))
    in
    Some
      (Json.Obj
         [ ("paired_queries", Json.int (List.length paired));
           ("wall_geomean_speedup", fixed 3 (geomean speedups));
           ("cnf_vars_shrink_pct", fixed 1 (shrink b_vars c_vars));
           ("cnf_clauses_shrink_pct", fixed 1 (shrink b_cls c_cls)) ])
  end

(* Verdict identity against the baseline: the verdict class of every
   query present in both recordings must match.  Counterexample models
   may legitimately differ between solver versions; the verdicts may
   not.  Returns the drifted (name, mode, baseline, current) rows. *)
let verdict_drift (current : record list) (baseline : record list) :
    (string * string * string * string) list =
  List.filter_map
    (fun r ->
      match List.find_opt (fun b -> b.rname = r.rname && b.rmode = r.rmode) baseline with
      | Some b when b.rverdict <> r.rverdict -> Some (r.rname, r.rmode, b.rverdict, r.rverdict)
      | _ -> None)
    current

(* ------------------------------------------------------------------ *)
(* Entry point; returns false when a query blew the conflict budget     *)
(* or its verdict class drifted from the baseline.                      *)
(* ------------------------------------------------------------------ *)

let run ~(jobs : int) ?timeout_s ~(out : string) ~(baseline : string)
    ?save_baseline_to () : bool =
  let queries = Array.of_list (Ub_corpus.corpus ()) in
  Printf.printf "corpus: %d checker queries (matrix x 2 modes, opt-fuzz slice, wide-width identities)\n%!"
    (Array.length queries);
  let results, pool = Ub_exec.Pool.map_stats ~jobs ?timeout_s run_query queries in
  let records =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Ub_exec.Pool.Done rec_ -> rec_
           | Ub_exec.Pool.Crashed msg ->
             Printf.printf "CRASH %s: %s\n" queries.(i).qname msg;
             { rname = queries.(i).qname; rmode = queries.(i).qmode; rverdict = "crashed";
               rbudget_exceeded = true; rwall_s = 0.0; rnodes = 0; rvars = 0; rclauses = 0;
               rconflicts = 0; rdecisions = 0; rpropagations = 0; rlearned_peak = 0;
               rengine = "none"; rsim_blocks = 0 }
           | Ub_exec.Pool.Timed_out ->
             { rname = queries.(i).qname; rmode = queries.(i).qmode; rverdict = "timeout";
               rbudget_exceeded = true; rwall_s = 0.0; rnodes = 0; rvars = 0; rclauses = 0;
               rconflicts = 0; rdecisions = 0; rpropagations = 0; rlearned_peak = 0;
               rengine = "none"; rsim_blocks = 0 })
         results)
  in
  let s = summarize records in
  Printf.printf
    "queries: %d  wall total: %.3fs  geomean: %.2fms\n\
     cnf: %d vars, %d clauses (totals)  conflicts: %d  propagations: %d  peak learned DB: %d\n\
     simulated: %d queries, %d blocks\n"
    s.n s.wall_total (1000.0 *. s.wall_geomean) s.vars_total s.clauses_total
    s.conflicts_total s.propagations_total s.learned_peak_max s.simulated s.sim_blocks_total;
  (match save_baseline_to with
  | Some p ->
    save_baseline p records;
    Printf.printf "baseline recorded: %s\n" p
  | None -> ());
  let base = load_baseline baseline in
  let vs = vs_baseline records base in
  (* [obs_report] is the aggregated telemetry for this run: per-query
     solver counters absorbed back from the pool workers, cache hit
     rate, task lifecycle.  See DESIGN.md section 10. *)
  Json.to_file out
    (Json.Obj
       ([ ("schema", Json.Str "ubc-solver-bench-v1");
          ("conflict_budget", Json.int conflict_budget);
          ("summary", summary_json s);
          ("layers", layers_json ());
          ("obs_report", Ub_obs.Obs.report ()) ]
       @ (match vs with
         | Some j -> [ ("vs_baseline", j); ("baseline_summary", summary_json (summarize base)) ]
         | None -> [])
       @ [ ("queries", Json.List (List.map record_json records)) ]));
  Printf.printf "wrote %s\n" out;
  (match vs with
  | Some j -> Printf.printf "vs baseline: %s\n" (Json.to_string j)
  | None -> Printf.printf "(no baseline at %s; speedup not computed)\n" baseline);
  Format.printf "%a@." Ub_exec.Pool.pp_stats pool;
  let budget_ok =
    if s.over_budget > 0 then begin
      Printf.printf "BUDGET-EXCEEDED: %d quer(ies) passed the %d-conflict budget\n"
        s.over_budget conflict_budget;
      false
    end
    else begin
      Printf.printf "BUDGET-OK: no query exceeded %d conflicts\n" conflict_budget;
      true
    end
  in
  let drift = verdict_drift records base in
  if base <> [] && drift = [] then
    Printf.printf "verdicts: every query matches its baseline verdict class\n";
  List.iter
    (fun (name, mode, was, now) ->
      Printf.printf "VERDICT-DRIFT: %s [%s] baseline %s, now %s\n" name mode was now)
    drift;
  budget_ok && drift = []
