(* Pass framework: configuration, the pass type, a rewrite engine for
   peephole passes, and the pass manager.

   The configuration mirrors the paper's prototype-vs-baseline axes:
   - [freeze]: the pipeline may emit freeze instructions (the paper's
     fixed passes do);
   - [legacy_bugs]: enable the *unsound* legacy behaviours of Section 3
     (loop unswitching without freeze, select->arith rewrites, GVN's
     select/undef folds, LICM division hoisting on up-to-poison facts,
     reassociation keeping nsw).  Used to reproduce miscompilations and
     as the "old LLVM" baseline;
   - [*_handles_freeze]: which passes have been taught about the new
     instruction (Section 6 "Optimizations": CodeGenPrepare was, jump
     threading was not — hence the nestedloop compile-time anomaly). *)

open Ub_ir

type config = {
  freeze : bool;
  legacy_bugs : bool;
  cgp_handles_freeze : bool;
  jt_handles_freeze : bool;
  inliner_freeze_free : bool;
  scev_freeze_aware : bool;
  inject : string list;
      (* test-only: names of deliberately unsound rewrites from the
         Inject catalog to enable, so the shrink engine, the hunting
         farm and their CI smokes have known bugs to rediscover *)
}

(* The baseline: LLVM as the paper found it. *)
let legacy =
  { freeze = false;
    legacy_bugs = true;
    cgp_handles_freeze = false;
    jt_handles_freeze = false;
    inliner_freeze_free = false;
    scev_freeze_aware = false;
    inject = [];
  }

(* The paper's prototype: freeze everywhere a fix needs it, unsound
   transformations removed, CodeGenPrepare and the inliner taught about
   freeze (Section 6), jump threading and scalar evolution not (their
   documented limitations). *)
let prototype =
  { freeze = true;
    legacy_bugs = false;
    cgp_handles_freeze = true;
    jt_handles_freeze = false;
    inliner_freeze_free = true;
    scev_freeze_aware = false;
    inject = [];
  }

(* A fully freeze-aware future pipeline (Section 10 upside). *)
let future =
  { prototype with jt_handles_freeze = true; scev_freeze_aware = true }

type t = { name : string; run : config -> Func.t -> Func.t }

type module_pass = { mp_name : string; mp_run : config -> Func.module_ -> Func.module_ }

(* ------------------------------------------------------------------ *)
(* Rewrite engine                                                      *)
(* ------------------------------------------------------------------ *)

type rewrite =
  | Keep
  | Replace_with of Instr.operand (* def := operand; instruction deleted *)
  | Replace_ins of Instr.t (* same def, different instruction *)
  | Expand of Instr.named list (* replacement sequence; must end with def *)

(* Apply a peephole [rule] everywhere, to fixpoint (bounded). *)
let rewrite_to_fixpoint ?(max_iters = 8) (rule : Func.t -> Instr.named -> rewrite)
    (fn : Func.t) : Func.t =
  let changed = ref true in
  let iters = ref 0 in
  let fn = ref fn in
  while !changed && !iters < max_iters do
    changed := false;
    incr iters;
    let substs = ref [] in
    let f = !fn in
    let fn' =
      Func.map_insns f (fun named ->
          match rule f named with
          | Keep -> [ named ]
          | Replace_with op ->
            (match named.Instr.def with
            | Some d ->
              substs := (d, op) :: !substs;
              changed := true
            | None -> ());
            []
          | Replace_ins ins ->
            changed := true;
            [ { named with Instr.ins } ]
          | Expand insns ->
            changed := true;
            insns)
    in
    let fn' =
      List.fold_left (fun acc (v, by) -> Func.replace_uses acc ~v ~by) fn' !substs
    in
    fn := fn'
  done;
  !fn

(* ------------------------------------------------------------------ *)
(* Pass manager                                                        *)
(* ------------------------------------------------------------------ *)

let run_pass (cfg : config) (p : t) (fn : Func.t) : Func.t =
  Ub_obs.Obs.with_span ("opt.pass." ^ p.name) @@ fun () ->
  let fn' = p.run cfg fn in
  (match Validate.check_func fn' with
  | [] -> ()
  | errs ->
    invalid_arg
      (Printf.sprintf "pass %s broke function @%s:\n%s\nresult:\n%s" p.name fn.Func.name
         (String.concat "\n" errs)
         (Printer.func_to_string fn')));
  fn'

let run_pipeline (cfg : config) (passes : t list) (fn : Func.t) : Func.t =
  List.fold_left (fun fn p -> run_pass cfg p fn) fn passes

let run_pipeline_module (cfg : config) (passes : t list) (m : Func.module_) : Func.module_ =
  { Func.funcs = List.map (run_pipeline cfg passes) m.funcs }
