(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sections 6-7).  See DESIGN.md section 4 for the
   experiment index and EXPERIMENTS.md for recorded results.

   Usage:
     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe f6 ct mem size lnt optfuzz matrix widen
                                         -- run selected experiments *)

open Ub_support
open Ub_ir
open Ub_sem

let sep title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n%!"

(* ------------------------------------------------------------------ *)
(* Execution config (-j / --cache / --timeout), shared by the matrix,  *)
(* optfuzz and lnt experiments                                         *)
(* ------------------------------------------------------------------ *)

let jobs = ref 1
let cache_dir = ref (None : string option)
let timeout_s = ref (None : float option)
let shrink = ref false
let corpus_dir = ref (None : string option)
let inject_entry = ref (None : string option)
let hunt_out = ref "BENCH_hunt.json"
let hunt_programs = ref 400
let hunt_failed = ref false
let trace_file = ref (None : string option)
let solver_out = ref "BENCH_solver.json"
let solver_baseline = ref "bench/solver_baseline.tsv"
let solver_save_baseline = ref (None : string option)
let solver_failed = ref false
let serve_out = ref "BENCH_serve.json"
let serve_failed = ref false

(* no-silent-caps: every pooled task that was dropped past the --timeout
   budget (or crashed) is counted here, reported per experiment, and
   turns the whole run into a non-zero exit — a "covered" total that
   silently excluded timed-out pairs is not a covered total *)
let dropped_total = ref 0

(* one cache handle per run, shared across experiments *)
let cache =
  let handle = lazy (Option.map Ub_exec.Cache.open_journal !cache_dir) in
  fun () -> Lazy.force handle

let print_pool_stats (s : Ub_exec.Pool.stats) =
  Format.printf "%a@." Ub_exec.Pool.pp_stats s

let print_cache_stats ~hits ~misses =
  if hits + misses > 0 then
    Printf.printf "cache: %d hit(s), %d miss(es), %.1f%% hit rate\n" hits misses
      (100.0 *. float_of_int hits /. float_of_int (hits + misses))
  else if !cache_dir <> None then print_endline "cache: no lookups"

let note_dropped ~experiment (pool : Ub_exec.Pool.stats) =
  let dropped = pool.Ub_exec.Pool.timed_out + pool.Ub_exec.Pool.crashed in
  if dropped > 0 then
    Printf.printf "DROPPED: %d task(s) in %s fell past the --timeout budget or crashed\n"
      dropped experiment;
  dropped_total := !dropped_total + dropped

(* A minimized witness on disk is a re-parsable module — the source
   renamed @src, the target renamed @tgt — behind a ';' metadata header
   the lexer skips, so `ubc check <witness> src tgt` replays it. *)
let write_witness ~dir ~name ~mode_name ~(red : Ub_refine.Reduce.reduction) =
  Util.mkdir_p dir;
  let path = Filename.concat dir (name ^ ".ll") in
  let header =
    [ "minimized counterexample: " ^ name; "mode: " ^ mode_name;
      Format.asprintf "%a" Ub_shrink.Reduce.pp_stats red.Ub_refine.Reduce.stats ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Printer.witness_to_string ~header ~tgt:red.Ub_refine.Reduce.red_tgt
           red.Ub_refine.Reduce.red_src));
  path

let report_reduction ~label (red : Ub_refine.Reduce.reduction) =
  let s = red.Ub_refine.Reduce.stats in
  Printf.printf "  shrink %-32s: %3d -> %2d insns (%.0f%%), %d oracle call(s)\n" label
    s.Ub_shrink.Reduce.initial_insns s.Ub_shrink.Reduce.final_insns
    (100.0
    *. float_of_int s.Ub_shrink.Reduce.final_insns
    /. float_of_int (max 1 s.Ub_shrink.Reduce.initial_insns))
    s.Ub_shrink.Reduce.oracle_calls

let emit_witness ~label ~mode_name red =
  report_reduction ~label red;
  match !corpus_dir with
  | None -> ()
  | Some dir ->
    let path = write_witness ~dir ~name:label ~mode_name ~red in
    Printf.printf "    witness: %s\n" path

(* ------------------------------------------------------------------ *)
(* F6: Figure 6 -- run-time change on the SPEC kernels, two machines   *)
(* ------------------------------------------------------------------ *)

let comparisons =
  lazy
    (List.map
       (fun (b : Ub_core.Spec_suite.bench) ->
         ( b,
           Ub_core.Driver.compare_pipelines ~name:b.Ub_core.Spec_suite.name ~entry:b.entry
             ~args:[] b.source ))
       Ub_core.Spec_suite.all)

let f6 () =
  sep "F6 | Figure 6: run-time change (%), baseline -> freeze prototype";
  Printf.printf "%-12s %-5s %12s %12s   (positive = prototype faster)\n" "benchmark" "group"
    "machine1" "machine2";
  List.iter
    (fun ((b : Ub_core.Spec_suite.bench), (c : Ub_core.Driver.comparison)) ->
      Printf.printf "%-12s %-5s %+11.2f%% %+11.2f%%\n" c.Ub_core.Driver.name
        (match b.group with `Cint -> "CINT" | `Cfp -> "CFP" | `Micro -> "micro")
        c.runtime_delta_m1_pct c.runtime_delta_m2_pct)
    (Lazy.force comparisons);
  let deltas =
    List.concat_map
      (fun (_, (c : Ub_core.Driver.comparison)) ->
        [ c.runtime_delta_m1_pct; c.runtime_delta_m2_pct ])
      (Lazy.force comparisons)
  in
  Printf.printf "range: %+.2f%% .. %+.2f%%   (paper: -1.6%% .. +1.6%%, one +6/8%% outlier)\n"
    (List.fold_left min infinity deltas)
    (List.fold_left max neg_infinity deltas)

(* ------------------------------------------------------------------ *)
(* T-CT: compile time                                                  *)
(* ------------------------------------------------------------------ *)

(* The compile's own clock: [Driver.compile] compacts the heap before
   it starts timing, and that compaction is no part of compiling. *)
let median_compile_time pipeline src =
  Util.median
    (List.init 5 (fun _ ->
         let c = Ub_core.Driver.compile ~pipeline src in
         c.Ub_core.Driver.metrics.Ub_core.Driver.compile_time_s))

let compile_time () =
  sep "T-CT | compile time change (%), median of 5 (paper: ~1%, nestedloop +19%)";
  Printf.printf "%-12s %12s %12s %9s\n" "benchmark" "base (ms)" "proto (ms)" "delta";
  List.iter
    (fun (b : Ub_core.Spec_suite.bench) ->
      let tb = median_compile_time Ub_core.Driver.Baseline b.Ub_core.Spec_suite.source in
      let tp = median_compile_time Ub_core.Driver.Prototype b.source in
      Printf.printf "%-12s %12.3f %12.3f %+8.1f%%\n" b.name (tb *. 1000.0) (tp *. 1000.0)
        (Util.percent_change ~base:tb ~now:tp))
    Ub_core.Spec_suite.all

(* ------------------------------------------------------------------ *)
(* T-MEM: memory the compilation allocates                            *)
(* ------------------------------------------------------------------ *)

let memory () =
  sep "T-MEM | words allocated by the compiler, change (%) (paper: peak <= +2%)";
  Printf.printf "%-12s %14s %14s %9s\n" "benchmark" "base (words)" "proto (words)" "delta";
  (* the first compile of a process also builds what later compiles
     reuse: pay that here, so no row depends on the experiments run
     before this one *)
  List.iter
    (fun pipeline ->
      ignore (Ub_core.Driver.compile ~pipeline (List.hd Ub_core.Spec_suite.all).source))
    [ Ub_core.Driver.Baseline; Ub_core.Driver.Prototype ];
  List.iter
    (fun (b : Ub_core.Spec_suite.bench) ->
      let mb =
        (Ub_core.Driver.compile ~pipeline:Ub_core.Driver.Baseline b.Ub_core.Spec_suite.source)
          .Ub_core.Driver.metrics.Ub_core.Driver.alloc_words
      in
      let mp =
        (Ub_core.Driver.compile ~pipeline:Ub_core.Driver.Prototype b.source)
          .Ub_core.Driver.metrics.Ub_core.Driver.alloc_words
      in
      Printf.printf "%-12s %14.0f %14.0f %+8.2f%%\n" b.name mb mp
        (Util.percent_change ~base:mb ~now:mp))
    Ub_core.Spec_suite.all

(* ------------------------------------------------------------------ *)
(* T-SIZE: object code size and freeze counts                          *)
(* ------------------------------------------------------------------ *)

let size () =
  sep "T-SIZE | object size and freeze counts (paper: size 0.5%; freeze\n       0.04-0.06% of IR overall, gcc highest with 0.29%)";
  Printf.printf "%-12s %10s %10s %8s %8s %10s\n" "benchmark" "base (B)" "proto (B)" "delta"
    "freezes" "% of IR";
  List.iter
    (fun ((_ : Ub_core.Spec_suite.bench), (c : Ub_core.Driver.comparison)) ->
      Printf.printf "%-12s %10d %10d %+7.2f%% %8d %9.3f%%\n" c.Ub_core.Driver.name
        c.baseline.Ub_core.Driver.metrics.Ub_core.Driver.obj_bytes
        c.prototype.Ub_core.Driver.metrics.Ub_core.Driver.obj_bytes c.size_delta_pct
        c.freeze_count c.freeze_fraction_pct)
    (Lazy.force comparisons);
  let total_insns =
    Util.sum_int
      (List.map
         (fun (_, (c : Ub_core.Driver.comparison)) ->
           c.prototype.Ub_core.Driver.metrics.Ub_core.Driver.ir_insns)
         (Lazy.force comparisons))
  in
  let total_freeze =
    Util.sum_int
      (List.map (fun (_, (c : Ub_core.Driver.comparison)) -> c.Ub_core.Driver.freeze_count)
         (Lazy.force comparisons))
  in
  Printf.printf "suite total: %d freeze / %d IR instructions = %.3f%%\n" total_freeze
    total_insns
    (float_of_int total_freeze /. float_of_int total_insns *. 100.0)

(* ------------------------------------------------------------------ *)
(* T-LNT: fraction of the corpus whose IR / asm changed                *)
(* ------------------------------------------------------------------ *)

(* Per-function outcome of the legacy-vs-prototype diff, with a tiny
   stable encoding for the persistent cache ("n" = no IR change, "i" =
   IR changed only, "a" = IR and asm changed). *)
let lnt_diff fn =
  let base = Ub_opt.Pipeline.run_o2_func Ub_opt.Pass.legacy fn in
  let proto = Ub_opt.Pipeline.run_o2_func Ub_opt.Pass.prototype fn in
  if Printer.func_to_string base = Printer.func_to_string proto then `Unchanged
  else begin
    let ab = (Ub_backend.Compile.compile_func base).Ub_backend.Compile.asm in
    let ap = (Ub_backend.Compile.compile_func proto).Ub_backend.Compile.asm in
    if ab <> ap then `Asm_changed else `Ir_changed
  end

let lnt_encode = function `Unchanged -> "n" | `Ir_changed -> "i" | `Asm_changed -> "a"
let lnt_decode = function
  | "n" -> Some `Unchanged
  | "i" -> Some `Ir_changed
  | "a" -> Some `Asm_changed
  | _ -> None

let lnt () =
  sep "T-LNT | corpus diff fractions (paper: 26% IR changed; 82% of those\n       changed asm; 21% overall)";
  let corpus = Array.of_list (Ub_fuzz.Gen.random_corpus ~seed:2017 ~size:120) in
  let total = Array.length corpus in
  let c = cache () in
  (* a record [lnt_decode] rejects is a miss: the task reruns *)
  let hits = ref 0 and misses = ref 0 in
  let key_of fn =
    Ub_exec.Cache.key ~parts:[ Printer.func_to_string fn; "lnt-legacy-vs-prototype-v1" ]
  in
  let results, pool =
    Ub_exec.Pool.map_cached ~jobs:!jobs ?timeout_s:!timeout_s
      ~find:(fun fn ->
        Option.bind c (fun cc ->
            let o = Option.bind (Ub_exec.Cache.find cc (key_of fn)) lnt_decode in
            incr (if Option.is_some o then hits else misses);
            o))
      ~store:(fun fn o ->
        Option.iter (fun cc -> Ub_exec.Cache.store cc (key_of fn) (lnt_encode o)) c)
      lnt_diff corpus
  in
  let crashed = ref 0 in
  let outcomes =
    Array.map
      (function
        | Ub_exec.Pool.Done o -> o
        | Ub_exec.Pool.Crashed _ | Ub_exec.Pool.Timed_out ->
          incr crashed;
          `Unchanged)
      results
  in
  let ir_changed =
    Array.fold_left (fun n o -> if o <> `Unchanged then n + 1 else n) 0 outcomes
  in
  let asm_changed =
    Array.fold_left (fun n o -> if o = `Asm_changed then n + 1 else n) 0 outcomes
  in
  let pct a b = 100.0 *. float_of_int a /. float_of_int b in
  Printf.printf "corpus: %d functions\n" total;
  if !crashed > 0 then Printf.printf "WARNING: %d function(s) crashed or timed out\n" !crashed;
  Printf.printf "different optimized IR : %d (%.0f%%)\n" ir_changed (pct ir_changed total);
  if ir_changed > 0 then
    Printf.printf "of those, different asm: %d (%.0f%%)  -- %.0f%% overall\n" asm_changed
      (pct asm_changed ir_changed) (pct asm_changed total);
  print_pool_stats pool;
  note_dropped ~experiment:"lnt" pool;
  print_cache_stats ~hits:!hits ~misses:!misses

(* ------------------------------------------------------------------ *)
(* T-OPTFUZZ: Section 6 validation                                     *)
(* ------------------------------------------------------------------ *)

let optfuzz () =
  sep "T-OPTFUZZ | opt-fuzz + checker validation (Section 6: all i2\n          3-instruction functions vs InstCombine/GVN/Reassoc/SCCP)";
  let run_validation ~slug name cfg mode params limit =
    (* enumerate + optimize in the parent (cheap); only the changed
       pairs are real checking work, and those go through the pool and
       the verdict cache *)
    let total = ref 0 in
    let pairs = ref [] in
    let _, truncated =
      Ub_fuzz.Gen.enumerate ~limit params (fun fn ->
          incr total;
          let fn' = Ub_opt.Pass.run_pipeline cfg Ub_opt.Pipeline.fuzz_passes fn in
          if fn' <> fn then pairs := (fn, fn') :: !pairs)
    in
    let pairs = Array.of_list (List.rev !pairs) in
    let report =
      Ub_refine.Sweep.check ~jobs:!jobs ?timeout_s:!timeout_s ?cache:(cache ())
        (Array.map (fun (src, tgt) -> { Ub_refine.Sweep.mode; src; tgt; inputs = None }) pairs)
    in
    let unsound = ref 0 and unknown = ref 0 in
    Array.iter
      (function
        | Ub_refine.Checker.Counterexample _ -> incr unsound
        | Ub_refine.Checker.Unknown _ -> incr unknown
        | Ub_refine.Checker.Refines -> ())
      report.Ub_refine.Sweep.verdicts;
    Printf.printf "%-30s: %5d functions%s, %5d optimized, %3d UNSOUND, %d unknown\n" name
      !total
      (if truncated then " (truncated)" else "")
      (Array.length pairs) !unsound !unknown;
    print_pool_stats report.Ub_refine.Sweep.pool;
    note_dropped ~experiment:name report.Ub_refine.Sweep.pool;
    print_cache_stats ~hits:report.Ub_refine.Sweep.cache_hits
      ~misses:report.Ub_refine.Sweep.cache_misses;
    if !shrink && !unsound > 0 then begin
      let failing =
        Array.to_list (Array.mapi (fun i v -> (i, v)) report.Ub_refine.Sweep.verdicts)
        |> List.filter_map (fun (i, v) ->
               match v with
               | Ub_refine.Checker.Counterexample _ -> Some pairs.(i)
               | _ -> None)
        |> Array.of_list
      in
      Printf.printf "shrinking %d unsound pair(s)...\n%!" (Array.length failing);
      let reductions, pool =
        Ub_refine.Reduce.minimize_corpus ~jobs:!jobs ?timeout_s:!timeout_s
          ?cache:(cache ()) mode failing
      in
      Array.iteri
        (fun i red ->
          let label = Printf.sprintf "%s-%03d" slug i in
          match red with
          | None -> Printf.printf "  shrink %-32s: dropped (crash or timeout)\n" label
          | Some red -> emit_witness ~label ~mode_name:mode.Mode.name red)
        reductions;
      note_dropped ~experiment:(name ^ " (shrink)") pool
    end
  in
  let base_params = { Ub_fuzz.Gen.default_params with Ub_fuzz.Gen.n_insns = 2 } in
  run_validation ~slug:"proto2" "prototype / proposed (2 ins)" Ub_opt.Pass.prototype
    Mode.proposed base_params 4_000;
  run_validation ~slug:"proto3" "prototype / proposed (3 ins)" Ub_opt.Pass.prototype
    Mode.proposed
    { base_params with Ub_fuzz.Gen.n_insns = 3 }
    4_000;
  let undef_params = { base_params with Ub_fuzz.Gen.include_undef = true } in
  run_validation ~slug:"legacy" "LEGACY / old-simplifycfg" Ub_opt.Pass.legacy
    Mode.old_simplifycfg undef_params 4_000;
  (match !inject_entry with
  | None -> ()
  | Some entry ->
    Printf.printf
      "(--inject-bug %s: the deliberately unsound rewrite \"%s\" is enabled below;\n\
      \ it must report UNSOUND pairs for --shrink to minimize)\n"
      entry (Ub_opt.Inject.find_exn entry).Ub_opt.Inject.doc;
    let params =
      if (Ub_opt.Inject.find_exn entry).Ub_opt.Inject.needs_undef then
        { base_params with Ub_fuzz.Gen.include_undef = true }
      else base_params
    in
    let mode =
      match (Ub_opt.Inject.find_exn entry).Ub_opt.Inject.modes with
      | m :: _ -> Option.get (Mode.find m)
      | [] -> Mode.proposed
    in
    run_validation ~slug:"injected" ("INJECTED-BUG[" ^ entry ^ "] (2 ins)")
      { Ub_opt.Pass.prototype with Ub_opt.Pass.inject = [ entry ] }
      mode params 4_000);
  print_endline "(the legacy pipeline's unsound rewrites are the Section 3 bugs;";
  print_endline " the prototype must report zero)"

(* ------------------------------------------------------------------ *)
(* T-MATRIX: the Section 3 soundness matrix                            *)
(* ------------------------------------------------------------------ *)

let matrix () =
  sep "T-MATRIX | transformation x semantics soundness matrix (Section 3)";
  let report =
    Ub_refine.Matrix.run_all_exec ~jobs:!jobs ?timeout_s:!timeout_s ?cache:(cache ()) ()
  in
  let results = report.Ub_refine.Matrix.results in
  let mode_names = List.map (fun m -> m.Mode.name) Mode.all in
  Printf.printf "%-26s" "transformation";
  List.iter (fun m -> Printf.printf " %-14s" m) mode_names;
  print_newline ();
  List.iter
    (fun ((e : Ub_refine.Matrix.entry), cells) ->
      Printf.printf "%-26s" e.Ub_refine.Matrix.id;
      List.iter
        (fun (c : Ub_refine.Matrix.cell) ->
          let s =
            match c.Ub_refine.Matrix.verdict with
            | Ub_refine.Checker.Refines -> "sound"
            | Ub_refine.Checker.Counterexample _ -> "UNSOUND"
            | Ub_refine.Checker.Unknown _ -> "?"
          in
          let mark = match c.Ub_refine.Matrix.agrees with Some false -> "!!" | _ -> "" in
          Printf.printf " %-14s" (s ^ mark))
        cells;
      print_newline ())
    results;
  let mism =
    List.concat_map
      (fun (_, cs) -> List.filter (fun c -> c.Ub_refine.Matrix.agrees = Some false) cs)
      results
  in
  Printf.printf "\ndisagreements with the paper's expectations: %d\n" (List.length mism);
  print_pool_stats report.Ub_refine.Matrix.pool;
  note_dropped ~experiment:"matrix" report.Ub_refine.Matrix.pool;
  print_cache_stats ~hits:report.Ub_refine.Matrix.cache_hits
    ~misses:report.Ub_refine.Matrix.cache_misses;
  if !shrink then begin
    Printf.printf "\nshrinking counterexample cells...\n%!";
    List.iter
      (fun ((e : Ub_refine.Matrix.entry), cells) ->
        List.iter
          (fun (c : Ub_refine.Matrix.cell) ->
            match (c.Ub_refine.Matrix.verdict, Mode.find c.Ub_refine.Matrix.mode_name) with
            | Ub_refine.Checker.Counterexample _, Some mode -> begin
              let src = Parser.parse_func_string e.Ub_refine.Matrix.src in
              let tgt = Parser.parse_func_string e.Ub_refine.Matrix.tgt in
              let label =
                Printf.sprintf "matrix-%s-%s" e.Ub_refine.Matrix.id mode.Mode.name
              in
              match
                Ub_refine.Reduce.minimize_cex ?inputs:e.Ub_refine.Matrix.inputs
                  ?cache:(cache ()) mode ~src ~tgt
              with
              | None -> Printf.printf "  shrink %-32s: cell did not reproduce\n" label
              | Some red -> emit_witness ~label ~mode_name:mode.Mode.name red
            end
            | _ -> ())
          cells)
      results
  end

(* ------------------------------------------------------------------ *)
(* T-WIDEN: Figure 3                                                   *)
(* ------------------------------------------------------------------ *)

let widen () =
  sep "T-WIDEN | induction-variable widening (Figure 3; paper: up to 39%)";
  let src =
    Parser.parse_func_string
      {|define i64 @store_loop(i32 %n, i64 %acc) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %a = phi i64 [ %acc, %entry ], [ %a1, %body ]
  %c = icmp sle i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %a1 = add i64 %a, %iext
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret i64 %a
}|}
  in
  let widened =
    Ub_opt.Dce.pass.Ub_opt.Pass.run Ub_opt.Pass.prototype
      (Ub_opt.Indvar_widen.pass.Ub_opt.Pass.run Ub_opt.Pass.prototype src)
  in
  let cycles p fn =
    let c = Ub_backend.Compile.compile_func fn in
    let counts, _ =
      Interp.profile ~module_:{ Func.funcs = [ fn ] } fn
        [ Value.of_int ~width:32 500; Value.of_int ~width:64 0 ]
    in
    Ub_backend.Compile.simulate_cycles p c ~profile:(List.map (fun ((_, l), n) -> (l, n)) counts)
  in
  List.iter
    (fun p ->
      let before = cycles p src and after = cycles p widened in
      Printf.printf "%-22s: %8.0f -> %8.0f cycles  (%.1f%% faster)\n"
        p.Ub_backend.Target.prof_name before after
        ((before -. after) /. before *. 100.0))
    Ub_backend.Target.profiles

(* ------------------------------------------------------------------ *)
(* T-SOLVER: the decision-procedure benchmark (see solver_bench.ml)    *)
(* ------------------------------------------------------------------ *)

let solver () =
  sep "T-SOLVER | solver-stack benchmark (seeded checker-query corpus)";
  let ok =
    Solver_bench.run ~jobs:!jobs ?timeout_s:!timeout_s ~out:!solver_out
      ~baseline:!solver_baseline ?save_baseline_to:!solver_save_baseline ()
  in
  if not ok then solver_failed := true

(* ------------------------------------------------------------------ *)
(* T-SERVE: the daemon load generator (see serve_bench.ml)             *)
(* ------------------------------------------------------------------ *)

let serve () =
  sep "T-SERVE | serve-daemon throughput vs spawning ubc check per query";
  let ok =
    Serve_bench.run ~jobs:!jobs ~out:!serve_out
  in
  if not ok then serve_failed := true

(* ------------------------------------------------------------------ *)

let hunt () =
  sep "T-HUNT | injected-bug recall campaign (lib/hunt)";
  if
    not
      (Hunt_bench.run ~jobs:!jobs ?timeout_s:!timeout_s ~programs:!hunt_programs
         ~out:!hunt_out ())
  then hunt_failed := true

let all =
  [ ("f6", f6); ("ct", compile_time); ("mem", memory); ("size", size); ("lnt", lnt);
    ("optfuzz", optfuzz); ("matrix", matrix); ("widen", widen); ("solver", solver);
    ("serve", serve); ("hunt", hunt);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [experiments] [-j N] [--cache DIR] [--timeout SECONDS]\n\
    \                [--shrink] [--corpus DIR] [--inject-bug ENTRY]\n\
     experiments: %s (default: all)\n\
     -j N           run matrix/optfuzz/lnt checking tasks on N forked workers\n\
     --cache DIR    persist verdicts in DIR; warm reruns only pay for new pairs\n\
     --timeout S    per-task timeout for pooled tasks (verdict: unknown);\n\
    \                dropped tasks are reported and fail the run\n\
     --shrink       minimize every counterexample matrix/optfuzz find\n\
     --corpus DIR   write minimized witnesses under DIR as re-parsable .ll files\n\
     --inject-bug ENTRY  optfuzz: also validate a deliberately unsound rewrite\n\
    \                from the catalog (lib/opt/inject.ml) so --shrink has a\n\
    \                known bug to minimize; lists valid names on a typo\n\
     --hunt-out F        hunt: write the recall/dedup JSON to F (default BENCH_hunt.json)\n\
     --hunt-programs N   hunt: per-entry program budget (default 400)\n\
     --trace FILE   stream a JSONL telemetry trace to FILE and write the\n\
    \                aggregated run report to FILE.report.json\n\
     --solver-out F          solver: write the benchmark JSON to F (default BENCH_solver.json)\n\
     --solver-baseline F     solver: compare speed and verdicts against a baseline TSV\n\
    \                         (default bench/solver_baseline.tsv)\n\
     --solver-save-baseline F  solver: also record this run as a baseline TSV\n\
     --serve-out F           serve: write the benchmark JSON to F (default BENCH_serve.json);\n\
    \                         with -j N > 1, serve also compares a jobs-1 daemon with a\n\
    \                         jobs-N one on a distinct-query corpus\n"
    (String.concat " " (List.map fst all));
  exit 2

let () =
  let rec parse args names =
    match args with
    | [] -> List.rev names
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest names
      | _ -> usage ())
    | "--cache" :: dir :: rest ->
      cache_dir := Some dir;
      parse rest names
    | "--timeout" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 ->
        timeout_s := Some s;
        parse rest names
      | _ -> usage ())
    | "--shrink" :: rest ->
      shrink := true;
      parse rest names
    | "--corpus" :: dir :: rest ->
      corpus_dir := Some dir;
      parse rest names
    | "--inject-bug" :: name :: rest when not (String.length name > 1 && name.[0] = '-') ->
      (match Ub_opt.Inject.find name with
      | Some _ -> inject_entry := Some name
      | None ->
        Printf.eprintf "unknown --inject-bug entry %S\nvalid entries: %s\n" name
          (String.concat ", " Ub_opt.Inject.names);
        exit 2);
      parse rest names
    | "--inject-bug" :: _ ->
      Printf.eprintf "--inject-bug needs a catalog entry name\nvalid entries: %s\n"
        (String.concat ", " Ub_opt.Inject.names);
      exit 2
    | "--hunt-out" :: f :: rest ->
      hunt_out := f;
      parse rest names
    | "--hunt-programs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        hunt_programs := n;
        parse rest names
      | _ -> usage ())
    | "--trace" :: f :: rest ->
      trace_file := Some f;
      parse rest names
    | "--solver-out" :: f :: rest ->
      solver_out := f;
      parse rest names
    | "--solver-baseline" :: f :: rest ->
      solver_baseline := f;
      parse rest names
    | "--solver-save-baseline" :: f :: rest ->
      solver_save_baseline := Some f;
      parse rest names
    | "--serve-out" :: f :: rest ->
      serve_out := f;
      parse rest names
    | name :: rest when List.mem_assoc name all -> parse rest (name :: names)
    | _ -> usage ()
  in
  let requested = parse (List.tl (Array.to_list Sys.argv)) [] in
  let to_run = if requested = [] then all else List.filter (fun (n, _) -> List.mem n requested) all in
  (match !trace_file with Some f -> Ub_obs.Obs.set_trace f | None -> ());
  print_endline "Taming Undefined Behavior in LLVM -- evaluation harness";
  print_endline "(see DESIGN.md for the experiment index, EXPERIMENTS.md for analysis)";
  List.iter (fun (_, f) -> f ()) to_run;
  (match !trace_file with
  | Some f ->
    Ub_obs.Obs.close ();
    let report = f ^ ".report.json" in
    Ub_obs.Obs.write_report report;
    Printf.printf "\ntrace: %s\nrun report: %s\n" f report
  | None -> ());
  if !dropped_total > 0 then begin
    Printf.printf
      "\nFAILURE: %d task(s) dropped past the --timeout budget or crashed;\n\
       the totals above are incomplete\n"
      !dropped_total;
    exit 1
  end;
  if !solver_failed then begin
    print_endline
      "\nFAILURE: solver benchmark quer(ies) exceeded the conflict budget or drifted \
       from the baseline verdict";
    exit 1
  end;
  if !serve_failed then begin
    print_endline "\nFAILURE: serve benchmark missed its verdict-agreement or speedup bar";
    exit 1
  end;
  if !hunt_failed then begin
    print_endline
      "\nFAILURE: hunt campaign missed full recall, found bugs in the clean pipeline,\n\
       or dropped work";
    exit 1
  end
