(* Pass framework: configuration, the pass type, a rewrite engine for
   peephole passes, and the pass manager.

   The configuration is the one choice the paper's evaluation makes:
   - [Baseline]: LLVM as the paper found it.  No freeze is emitted and
     the *unsound* legacy behaviours of Section 3 are on (loop
     unswitching without freeze, select->arith rewrites, GVN's
     select/undef folds, LICM division hoisting on up-to-poison facts,
     reassociation keeping nsw, integer load widening), so the
     miscompilations reproduce;
   - [Prototype]: the paper's prototype.  The fixed passes emit freeze,
     the unsound rewrites are gone, and CodeGenPrepare and the inliner
     are taught about freeze (Section 6).  Jump threading and scalar
     evolution are not, in either pipeline: those are the documented
     limitations behind the nestedloop compile-time anomaly (Section
     7.2) and Section 10.1. *)

open Ub_ir

type pipeline = Baseline | Prototype

type config = {
  pipeline : pipeline;
  inject : string list;
      (* test-only: names of deliberately unsound rewrites from the
         Inject catalog to enable, so the shrink engine, the hunting
         farm and their CI smokes have known bugs to rediscover *)
}

let legacy = { pipeline = Baseline; inject = [] }
let prototype = { pipeline = Prototype; inject = [] }

type t = { name : string; run : config -> Func.t -> Func.t }

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
