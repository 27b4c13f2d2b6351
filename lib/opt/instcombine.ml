(* InstCombine: the peephole catalog.  Every rewrite here is annotated
   with its soundness story under the proposed semantics; the ones that
   are only sound under a *different* old semantics (Section 3.4) run in
   the [Baseline] pipeline, so the miscompilation experiments reproduce,
   and the [Prototype] pipeline uses their freeze-based fixed forms.

   The opt-fuzz experiment (bench t-optfuzz-validate) validates this pass
   against the refinement checker on every 3-instruction function. *)

open Ub_support
open Ub_ir
open Instr

let conc = function Const (Constant.Int bv) -> Some bv | _ -> None

let is_zero op = match conc op with Some bv -> Bitvec.is_zero bv | None -> false
let is_one op = match conc op with Some bv -> Bitvec.is_one bv | None -> false
let is_all_ones op = match conc op with Some bv -> Bitvec.is_all_ones bv | None -> false
let is_true = is_one
let is_false = is_zero

let is_undef = function Const (Constant.Undef _) -> true | _ -> false

let czero ty = Const (Constant.zero ty)
let cint ~width i = Const (Constant.of_int ~width i)

let def_of fn op =
  match op with
  | Var v -> Func.find_def fn v
  | Const _ -> None

(* How many uses does a register have?  freeze-folding in GVN is only
   sound when replacing all uses; single-use checks also gate the
   use-count-sensitive undef folds. *)
let use_count = Func.use_count

(* select c, true, x -> or c, x and select c, x, false -> and c, x: the
   baseline rewrites to the bare logic op, the prototype freezes x.  The
   freeze's name derives from this def (unique in SSA): Func.fresh_var
   would hand the same name to two expansions landing in one rewrite
   iteration. *)
let select_to_logic (cfg : Pass.config) (named : Instr.named) op ty c x : Pass.rewrite =
  match cfg.Pass.pipeline with
  | Pass.Baseline -> Pass.Replace_ins (Binop (op, no_attrs, ty, c, x))
  | Pass.Prototype ->
    let fx = "ic.fr." ^ Option.get named.def in
    Pass.Expand
      [ { Instr.def = Some fx; ins = Freeze (ty, x) };
        { named with Instr.ins = Binop (op, no_attrs, ty, c, Var fx) };
      ]

let rule (cfg : Pass.config) (fn : Func.t) (named : Instr.named) : Pass.rewrite =
  match named.ins with
  (* ---------------- binop identities (sound in every mode) -------- *)
  | Binop (Add, _, _, x, z) when is_zero z -> Pass.Replace_with x
  | Binop (Add, _, _, z, x) when is_zero z -> Pass.Replace_with x
  | Binop (Sub, _, _, x, z) when is_zero z -> Pass.Replace_with x
  | Binop (Mul, _, _, x, o) when is_one o -> Pass.Replace_with x
  | Binop (Mul, _, _, o, x) when is_one o -> Pass.Replace_with x
  (* x*0 -> 0: sound — poison*0 is poison in the source, and poison
     covers 0 *)
  | Binop (Mul, _, ty, _, z) when is_zero z -> Pass.Replace_with (czero ty)
  | Binop (Mul, _, ty, z, _) when is_zero z -> Pass.Replace_with (czero ty)
  | Binop (And, _, _, x, y) when x = y -> Pass.Replace_with x
  | Binop (And, _, ty, _, z) when is_zero z -> Pass.Replace_with (czero ty)
  | Binop (And, _, ty, z, _) when is_zero z -> Pass.Replace_with (czero ty)
  | Binop (And, _, _, x, m) when is_all_ones m -> Pass.Replace_with x
  | Binop (And, _, _, m, x) when is_all_ones m -> Pass.Replace_with x
  | Binop (Or, _, _, x, y) when x = y -> Pass.Replace_with x
  | Binop (Or, _, _, x, z) when is_zero z -> Pass.Replace_with x
  | Binop (Or, _, _, z, x) when is_zero z -> Pass.Replace_with x
  | Binop (Or, _, ty, _, m) when is_all_ones m ->
    Pass.Replace_with (cint ~width:(Types.bitwidth ty) (-1))
  | Binop (Or, _, ty, m, _) when is_all_ones m ->
    Pass.Replace_with (cint ~width:(Types.bitwidth ty) (-1))
  (* x^x -> 0, x-x -> 0: sound — if x is poison the source is poison *)
  | Binop (Xor, _, ty, x, y) when x = y && not (is_undef x) -> Pass.Replace_with (czero ty)
  | Binop (Sub, _, ty, x, y) when x = y && not (is_undef x) -> Pass.Replace_with (czero ty)
  | Binop (Xor, _, _, x, z) when is_zero z -> Pass.Replace_with x
  | Binop (Xor, _, _, z, x) when is_zero z -> Pass.Replace_with x
  | Binop ((Shl | LShr | AShr), _, _, x, z) when is_zero z -> Pass.Replace_with x
  | Binop (UDiv, _, _, x, o) when is_one o -> Pass.Replace_with x
  | Binop (SDiv, _, _, x, o) when is_one o -> Pass.Replace_with x
  | Binop (URem, _, ty, _, o) when is_one o -> Pass.Replace_with (czero ty)
  (* ---------------- strength reduction ---------------------------- *)
  (* add x,x -> shl x,1: one use of x each side — sound in all modes *)
  | Binop (Add, attrs, ty, x, y) when x = y && Types.bitwidth ty > 1 ->
    Pass.Replace_ins (Binop (Shl, { attrs with exact = false }, ty, x, cint ~width:(Types.bitwidth ty) 1))
  (* mul x,2 -> add x,x: duplicates an SSA use — Section 3.1's bug.
     Unsound when x can be undef; sound in the proposed semantics. *)
  | Binop (Mul, attrs, ty, x, two)
    when match conc two with Some bv -> Bitvec.equal bv (Bitvec.of_int ~width:(Bitvec.width bv) 2) | None -> false ->
    Pass.Replace_ins (Binop (Add, { attrs with exact = false }, ty, x, x))
  (* mul x, 2^k -> shl x, k *)
  | Binop (Mul, _, ty, x, c)
    when (match conc c with
         | Some bv -> Bitvec.is_power_of_two bv && not (Bitvec.is_one bv) && not (Bitvec.equal bv (Bitvec.of_int ~width:(Bitvec.width bv) 2))
         | None -> false) ->
    let bv = Option.get (conc c) in
    Pass.Replace_ins
      (Binop (Shl, no_attrs, ty, x, cint ~width:(Types.bitwidth ty) (Bitvec.count_trailing_zeros bv)))
  (* udiv x, 2^k -> lshr x, k  (sound: both poison iff x poison) *)
  | Binop (UDiv, attrs, ty, x, c)
    when (match conc c with Some bv -> Bitvec.is_power_of_two bv && not (Bitvec.is_one bv) | None -> false) ->
    let bv = Option.get (conc c) in
    Pass.Replace_ins
      (Binop (LShr, { no_attrs with exact = attrs.exact }, ty, x,
              cint ~width:(Types.bitwidth ty) (Bitvec.count_trailing_zeros bv)))
  (* ---------------- icmp simplifications -------------------------- *)
  (* x == x -> true: sound — poison==poison is poison and poison covers
     true; undef==undef can be true *)
  | Icmp (Eq, _, x, y) when x = y -> Pass.Replace_with (Const (Constant.bool true))
  | Icmp (Ne, _, x, y) when x = y -> Pass.Replace_with (Const (Constant.bool false))
  | Icmp (Ult, _, _, z) when is_zero z -> Pass.Replace_with (Const (Constant.bool false))
  | Icmp (Uge, _, _, z) when is_zero z -> Pass.Replace_with (Const (Constant.bool true))
  | Icmp (Ule, _, _, m) when is_all_ones m -> Pass.Replace_with (Const (Constant.bool true))
  (* a+b > a  ->  b > 0  given nsw (the Section 2.4 motivating example) *)
  | Icmp (Sgt, ty, Var s, a) -> (
    match def_of fn (Var s) with
    | Some { Instr.ins = Binop (Add, attrs, _, x, y); _ } when attrs.nsw ->
      if x = a then Pass.Replace_ins (Icmp (Sgt, ty, y, czero ty))
      else if y = a then Pass.Replace_ins (Icmp (Sgt, ty, x, czero ty))
      else Pass.Keep
    | _ -> Pass.Keep)
  (* ---------------- select ----------------------------------------- *)
  | Select (c, _, a, _b) when is_true c -> Pass.Replace_with a
  | Select (c, _, _a, b) when is_false c -> Pass.Replace_with b
  | Select (_, _, a, b) when a = b && not (is_undef a) -> Pass.Replace_with a
  (* select c, true, x -> or c, x : sound ONLY under Select_arith
     (Section 3.4); enabled as a legacy bug.  The freeze pipeline uses
     or c, freeze(x) instead (Section 6 "Limitations"; note the paper
     freezes %c in prose but the non-chosen arm is what must be frozen —
     the checker in test_matrix demonstrates both facts). *)
  | Select (c, ty, t, x) when is_true t && Types.is_bool ty && named.def <> None ->
    select_to_logic cfg named Or ty c x
  (* select c, x, false -> and c, x : same story *)
  | Select (c, ty, x, f) when is_false f && Types.is_bool ty && named.def <> None ->
    select_to_logic cfg named And ty c x
  (* select c, x, undef -> x : the PR31633 bug (Section 3.4) — wrong
     because x could be poison, and poison is stronger than undef *)
  | Select (_, _, x, u) when is_undef u && cfg.Pass.pipeline = Pass.Baseline -> Pass.Replace_with x
  | Select (_, _, u, x) when is_undef u && cfg.Pass.pipeline = Pass.Baseline -> Pass.Replace_with x
  (* ---------------- conversions ------------------------------------ *)
  (* trunc(zext x) / trunc(sext x) back to original width -> x *)
  | Conv (Trunc, _, Var v, to_) -> (
    match def_of fn (Var v) with
    | Some { Instr.ins = Conv ((Zext | Sext), from2, x, _); _ } when Types.equal from2 to_ ->
      Pass.Replace_with x
    | _ -> Pass.Keep)
  (* zext(zext x) -> zext x; sext(sext x) -> sext x *)
  | Conv (Zext, _, Var v, to_) -> (
    match def_of fn (Var v) with
    | Some { Instr.ins = Conv (Zext, from2, x, _); _ } ->
      Pass.Replace_ins (Conv (Zext, from2, x, to_))
    | _ -> Pass.Keep)
  | Conv (Sext, _, Var v, to_) -> (
    match def_of fn (Var v) with
    | Some { Instr.ins = Conv (Sext, from2, x, _); _ } ->
      Pass.Replace_ins (Conv (Sext, from2, x, to_))
    | _ -> Pass.Keep)
  (* ---------------- freeze ----------------------------------------- *)
  (* freeze(freeze x) -> freeze x (Section 6) *)
  | Freeze (_, Var v) -> (
    match def_of fn (Var v) with
    | Some { Instr.ins = Freeze _; _ } -> Pass.Replace_with (Var v)
    | _ ->
      (* freeze x -> x when x is guaranteed not to be undef/poison *)
      if Ub_analysis.Known_bits.not_undef_or_poison fn (Var v) then Pass.Replace_with (Var v)
      else Pass.Keep)
  | _ -> Pass.Keep

let pass : Pass.t =
  { Pass.name = "instcombine"; run = (fun cfg fn -> Pass.rewrite_to_fixpoint (rule cfg) fn) }
