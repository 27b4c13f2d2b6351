(* Reassociation (Section 10.2).

   Rewrites (a + C1) + C2 into a + (C1+C2) and canonicalizes constant
   operands of commutative operations to the right.  Reassociating must
   DROP nsw/nuw from the participating adds: the rewritten expression can
   overflow where the original did not, so keeping the attribute would
   manufacture poison — the exact reassociation bug the paper reports
   LLVM and MSVC both had.  The [Baseline] pipeline keeps the attributes,
   and the opt-fuzz validation flags it. *)

open Ub_support
open Ub_ir
open Instr

let conc = function Const (Constant.Int bv) -> Some bv | _ -> None

let rule (cfg : Pass.config) (fn : Func.t) (named : Instr.named) : Pass.rewrite =
  match named.ins with
  (* canonicalize constants to the RHS of commutative ops *)
  | Binop (op, attrs, ty, (Const (Constant.Int _) as c), (Var _ as x))
    when Instr.commutative op ->
    Pass.Replace_ins (Binop (op, attrs, ty, x, c))
  (* (x + C1) + C2 -> x + (C1+C2), dropping wrap flags *)
  | Binop (Add, attrs, ty, Var v, c2) -> (
    match (conc c2, Func.find_def fn v) with
    | Some k2, Some { Instr.ins = Binop (Add, inner_attrs, _, x, c1); _ } -> (
      match conc c1 with
      | Some k1 ->
        let keep = if cfg.Pass.pipeline = Pass.Baseline then { attrs with exact = false } else no_attrs in
        ignore inner_attrs;
        Pass.Replace_ins (Binop (Add, keep, ty, x, Const (Constant.Int (Bitvec.add k1 k2))))
      | None -> Pass.Keep)
    | _ -> Pass.Keep)
  (* (x - C) -> x + (-C) to expose reassociation *)
  | Binop (Sub, attrs, ty, x, c) -> (
    match conc c with
    | Some k when not (Bitvec.is_zero k) ->
      let keep = if cfg.Pass.pipeline = Pass.Baseline then attrs else no_attrs in
      Pass.Replace_ins (Binop (Add, { keep with exact = false }, ty, x, Const (Constant.Int (Bitvec.neg k))))
    | _ -> Pass.Keep)
  | _ -> Pass.Keep

let pass : Pass.t =
  { Pass.name = "reassociate"; run = (fun cfg fn -> Pass.rewrite_to_fixpoint (rule cfg) fn) }
