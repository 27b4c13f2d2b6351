(* The end-to-end compiler driver: Mini-C -> IR -> optimizer -> backend,
   in the two configurations the paper compares, and the one place that
   maps that choice to the front end's, the optimizer's and the
   simulator's settings:

   - [Baseline]: the LLVM the paper forked from — no freeze instruction,
     the legacy (sometimes unsound) transformations enabled, bit-field
     stores lowered without freeze.
   - [Prototype]: the paper's prototype — freeze emitted by the fixed
     passes and by Clang's bit-field lowering, unsound rewrites removed,
     CodeGenPrepare and the inliner taught about freeze.

   Alongside the compiled artifact we collect everything Section 7
   measures: compile time, peak memory, IR size, freeze counts, object
   size, and simulated run time on both machine profiles. *)

open Ub_support
open Ub_ir

type pipeline = Ub_opt.Pass.pipeline = Baseline | Prototype

let pass_config = function
  | Baseline -> Ub_opt.Pass.legacy
  | Prototype -> Ub_opt.Pass.prototype

let clang_config = function
  | Baseline -> Ub_minic.Lower.clang_legacy
  | Prototype -> Ub_minic.Lower.clang_fixed

(* The semantics a pipeline's output is correct under.  The baseline's
   output contains the legacy lowerings, which are only correct under
   the OLD semantics; running it under the proposed semantics would
   report the miscompilations this repository exists to demonstrate. *)
let semantics = function
  | Baseline -> Ub_sem.Mode.old_unswitch
  | Prototype -> Ub_sem.Mode.proposed

type metrics = {
  compile_time_s : float;
  alloc_words : float; (* words the compilation allocated *)
  ir_insns : int; (* after optimization *)
  freeze_count : int;
  obj_bytes : int;
}

type compiled_program = {
  pipeline : pipeline;
  source_ir : Func.module_; (* before optimization *)
  opt_ir : Func.module_;
  compiled : (string * Ub_backend.Compile.compiled) list;
  metrics : metrics;
}

let total_insns (m : Func.module_) =
  Util.sum_int (List.map Func.num_insns m.Func.funcs)

let total_freeze (m : Func.module_) =
  Util.sum_int (List.map Func.num_freeze m.Func.funcs)

(* Words allocated so far (promoted words count in both heaps).  On
   OCaml 5, [Gc.quick_stat] lags until the next minor collection. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Compile a Mini-C source string.  The timed region spans parsing,
   lowering, optimization and code generation (what §7.2 calls
   compilation time).  [alloc_words] depends on the compile alone, not
   on the heap the rest of the binary left behind. *)
let compile ?(pipeline = Prototype) (src : string) : compiled_program =
  Gc.compact ();
  let w0 = allocated_words () in
  let t0 = Ub_obs.Obs.Clock.now_s () in
  let source_ir = Ub_minic.Lower.compile ~cfg:(clang_config pipeline) src in
  let opt_ir = Ub_opt.Pipeline.run_o2 (pass_config pipeline) source_ir in
  let compiled = Ub_backend.Compile.compile_module opt_ir in
  let dt = Ub_obs.Obs.Clock.elapsed_s ~since:t0 in
  let alloc_words = allocated_words () -. w0 in
  { pipeline;
    source_ir;
    opt_ir;
    compiled;
    metrics =
      { compile_time_s = dt;
        alloc_words;
        ir_insns = total_insns opt_ir;
        freeze_count = total_freeze opt_ir;
        obj_bytes =
          Util.sum_int (List.map (fun (_, c) -> c.Ub_backend.Compile.obj_size) compiled);
      };
  }

(* Simulated run: execute the OPTIMIZED IR to obtain the block-level
   profile, then price the machine code.  Each pipeline is profiled
   under the semantics it targets ([semantics]) — which is also what
   hardware does: the machine gives uninitialized registers concrete
   values. *)
type sim_result = {
  outcome : Ub_sem.Interp.outcome;
  cycles_m1 : float;
  cycles_m2 : float;
}

(* Price one run of [entry] in [opt_ir], whose machine code is
   [compiled]; [ubc compile --cycles] prices its builds here too. *)
let price pipeline ~(opt_ir : Func.module_)
    ~(compiled : (string * Ub_backend.Compile.compiled) list) ~(entry : string)
    ~(args : Ub_sem.Value.t list) : sim_result =
  let fn = Func.find_func_exn opt_ir entry in
  let profile, outcome =
    Ub_sem.Interp.profile ~mode:(semantics pipeline) ~module_:opt_ir fn args
  in
  let cycles p =
    List.fold_left
      (fun acc (name, comp) ->
        let fprof =
          List.filter_map (fun ((f, l), n) -> if f = name then Some (l, n) else None) profile
        in
        acc +. Ub_backend.Compile.simulate_cycles p comp ~profile:fprof)
      0.0 compiled
  in
  { outcome;
    cycles_m1 = cycles Ub_backend.Target.machine1;
    cycles_m2 = cycles Ub_backend.Target.machine2;
  }

let simulate (cp : compiled_program) ~entry ~args : sim_result =
  price cp.pipeline ~opt_ir:cp.opt_ir ~compiled:cp.compiled ~entry ~args

(* Convenience: run a source end-to-end through both pipelines and
   report the relative change, Figure-6 style. *)
type comparison = {
  name : string;
  runtime_delta_m1_pct : float; (* positive = prototype faster (paper convention) *)
  runtime_delta_m2_pct : float;
  compile_time_delta_pct : float;
  size_delta_pct : float;
  freeze_count : int;
  freeze_fraction_pct : float;
  baseline : compiled_program;
  prototype : compiled_program;
}

let compare_pipelines ~name ~entry ~args (src : string) : comparison =
  let base = compile ~pipeline:Baseline src in
  let proto = compile ~pipeline:Prototype src in
  let sim_b = simulate base ~entry ~args in
  let sim_p = simulate proto ~entry ~args in
  (* positive % = performance improved (paper's Figure 6 convention) *)
  let delta b p = if b = 0.0 then 0.0 else (b -. p) /. b *. 100.0 in
  { name;
    runtime_delta_m1_pct = delta sim_b.cycles_m1 sim_p.cycles_m1;
    runtime_delta_m2_pct = delta sim_b.cycles_m2 sim_p.cycles_m2;
    compile_time_delta_pct =
      Util.percent_change ~base:base.metrics.compile_time_s ~now:proto.metrics.compile_time_s;
    size_delta_pct =
      Util.percent_change
        ~base:(float_of_int base.metrics.obj_bytes)
        ~now:(float_of_int proto.metrics.obj_bytes);
    freeze_count = proto.metrics.freeze_count;
    freeze_fraction_pct =
      (if proto.metrics.ir_insns = 0 then 0.0
       else float_of_int proto.metrics.freeze_count /. float_of_int proto.metrics.ir_insns *. 100.0);
    baseline = base;
    prototype = proto;
  }
