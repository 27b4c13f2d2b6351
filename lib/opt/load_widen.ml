(* Load widening (Section 5.4).

   Widening a narrow load to the machine word is profitable but
   hazardous: with a plain integer widened load, poison (or
   uninitialized) bits in the *extra* bytes contaminate the whole loaded
   value.  The paper's fix is to widen to a VECTOR load and extract the
   original element — poison is tracked per element, so the neighbours
   can't hurt the value actually used.

   - [Prototype] pipeline: i16 load at an even offset inside an allocation
     with >= 4 bytes remaining becomes load <2 x i16> + extractelement 0.
   - [Baseline] pipeline: the unsound integer widening
     (load i32 + trunc), which t-matrix flags under the proposed
     semantics.

   We only widen loads whose pointer is a direct malloc result (so
   in-bounds-ness of the extra bytes is known). *)

open Ub_ir
open Instr

let malloc_size (fn : Func.t) (p : operand) : int option =
  match p with
  | Var v -> (
    match Func.find_def fn v with
    | Some { Instr.ins = Call (_, name, [ (_, Const (Constant.Int n)) ]); _ }
      when name = "malloc" || name = "alloca" ->
      Ub_support.Bitvec.to_uint_opt n
    | _ -> None)
  | Const _ -> None

let rule (cfg : Pass.config) (fn : Func.t) (named : Instr.named) : Pass.rewrite =
  match named.ins with
  | Load ((Types.Int 16 as ty), p) -> (
    match malloc_size fn p with
    | Some sz when sz >= 4 -> (
      let pv = Func.fresh_var fn "lw.p" in
      match cfg.Pass.pipeline with
      | Pass.Prototype ->
        (* vector widening: per-element poison, sound *)
        let vty = Types.Vec (2, Types.Int 16) in
        let wide = Func.fresh_var fn "lw.v" in
        Pass.Expand
          [ { Instr.def = Some pv; ins = Bitcast (Types.Ptr ty, p, Types.Ptr vty) };
            { Instr.def = Some wide; ins = Load (vty, Var pv) };
            { named with
              Instr.ins =
                Extractelement (vty, Var wide, Const (Constant.of_int ~width:32 0));
            };
          ]
      | Pass.Baseline ->
        (* integer widening: neighbouring poison/uninit bits contaminate
           the result — unsound, kept to reproduce the bug *)
        let wide = Func.fresh_var fn "lw.w" in
        Pass.Expand
          [ { Instr.def = Some pv; ins = Bitcast (Types.Ptr ty, p, Types.Ptr (Types.Int 32)) };
            { Instr.def = Some wide; ins = Load (Types.Int 32, Var pv) };
            { named with Instr.ins = Conv (Trunc, Types.Int 32, Var wide, ty) };
          ])
    | _ -> Pass.Keep)
  | _ -> Pass.Keep

let pass : Pass.t =
  { Pass.name = "load-widen"; run = (fun cfg fn -> Pass.rewrite_to_fixpoint ~max_iters:1 (rule cfg) fn) }
