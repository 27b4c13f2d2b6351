(* Known-bits and power-of-two analyses, in the spirit of LLVM's
   ValueTracking.

   IMPORTANT (Section 5.6 of the paper): results hold *up to poison* — a
   fact like "is a power of two" means "for executions in which the
   analyzed value and the values it depends on are not poison".  The API
   makes this explicit: every query returns an [up_to_poison] fact, and
   clients that move code past control flow must separately establish
   non-poison (e.g. via freeze) before relying on it.  The unsound LICM
   variant in lib/opt ignores this — exactly the bug the paper warns
   about — and the checker catches it. *)

open Ub_support
open Ub_ir

type fact = {
  known_zero : Bitvec.t; (* bits guaranteed 0 (when non-poison) *)
  known_one : Bitvec.t; (* bits guaranteed 1 (when non-poison) *)
  up_to_poison : bool; (* always true here; see note above *)
}

let top ~width =
  { known_zero = Bitvec.zero width; known_one = Bitvec.zero width; up_to_poison = true }

let of_const bv =
  { known_zero = Bitvec.lognot bv; known_one = bv; up_to_poison = true }

(* Analysis over a function: a fixpoint is unnecessary for our loop-free
   uses; we do a single pass in block layout order and give [top] to
   anything not yet seen (phis, loop-carried values). *)
type env = (Instr.var, fact) Hashtbl.t

let lookup env ~width (op : Instr.operand) : fact =
  match op with
  | Instr.Const (Constant.Int bv) -> of_const bv
  | Instr.Const _ -> top ~width
  | Instr.Var v -> ( match Hashtbl.find_opt env v with Some f -> f | None -> top ~width)

let transfer env (ins : Instr.t) : fact option =
  match ins with
  | Instr.Binop (op, _, ty, a, b) when Types.is_integer ty -> (
    let w = Types.bitwidth ty in
    let fa = lookup env ~width:w a and fb = lookup env ~width:w b in
    match op with
    | Instr.And ->
      Some
        { known_zero = Bitvec.logor fa.known_zero fb.known_zero;
          known_one = Bitvec.logand fa.known_one fb.known_one;
          up_to_poison = true;
        }
    | Instr.Or ->
      Some
        { known_zero = Bitvec.logand fa.known_zero fb.known_zero;
          known_one = Bitvec.logor fa.known_one fb.known_one;
          up_to_poison = true;
        }
    | Instr.Xor ->
      Some
        { known_zero =
            Bitvec.logor
              (Bitvec.logand fa.known_zero fb.known_zero)
              (Bitvec.logand fa.known_one fb.known_one);
          known_one =
            Bitvec.logor
              (Bitvec.logand fa.known_zero fb.known_one)
              (Bitvec.logand fa.known_one fb.known_zero);
          up_to_poison = true;
        }
    | Instr.Shl -> (
      match b with
      | Instr.Const (Constant.Int n) when Bitvec.shift_in_range fa.known_zero n ->
        let sh = Bitvec.to_uint_exn n in
        let kz = Bitvec.shl fa.known_zero sh in
        (* low bits become known zero *)
        let low_mask =
          if sh = 0 then Bitvec.zero w
          else Bitvec.lognot (Bitvec.shl (Bitvec.all_ones w) sh)
        in
        Some
          { known_zero = Bitvec.logor kz low_mask;
            known_one = Bitvec.shl fa.known_one sh;
            up_to_poison = true;
          }
      | _ -> Some (top ~width:w))
    | Instr.LShr -> (
      match b with
      | Instr.Const (Constant.Int n) when Bitvec.shift_in_range fa.known_zero n ->
        let sh = Bitvec.to_uint_exn n in
        let high_mask =
          if sh = 0 then Bitvec.zero w
          else Bitvec.lognot (Bitvec.lshr (Bitvec.all_ones w) sh)
        in
        Some
          { known_zero = Bitvec.logor (Bitvec.lshr fa.known_zero sh) high_mask;
            known_one = Bitvec.lshr fa.known_one sh;
            up_to_poison = true;
          }
      | _ -> Some (top ~width:w))
    | Instr.UDiv | Instr.SDiv | Instr.URem | Instr.SRem | Instr.AShr | Instr.Add | Instr.Sub
    | Instr.Mul ->
      Some (top ~width:w))
  | Instr.Conv (Instr.Zext, from, x, to_) ->
    let fw = Types.bitwidth from and tw = Types.bitwidth to_ in
    let fx = lookup env ~width:fw x in
    let ext_zero = Bitvec.logand (Bitvec.lognot (Bitvec.zext (Bitvec.all_ones fw) ~width:tw)) (Bitvec.all_ones tw) in
    Some
      { known_zero = Bitvec.logor (Bitvec.zext fx.known_zero ~width:tw) ext_zero;
        known_one = Bitvec.zext fx.known_one ~width:tw;
        up_to_poison = true;
      }
  | Instr.Conv (Instr.Trunc, from, x, to_) ->
    let fw = Types.bitwidth from and tw = Types.bitwidth to_ in
    let fx = lookup env ~width:fw x in
    Some
      { known_zero = Bitvec.trunc fx.known_zero ~width:tw;
        known_one = Bitvec.trunc fx.known_one ~width:tw;
        up_to_poison = true;
      }
  | Instr.Freeze (ty, x) when Types.is_integer ty ->
    (* freeze preserves known bits: if the input is non-poison they hold;
       if it is poison the frozen value is arbitrary, but then the input
       fact was vacuous anyway... EXCEPT that freeze's output is *not*
       up-to-poison-vacuous: this is precisely the Section 5.6 subtlety.
       We conservatively return top unless the input is a constant. *)
    (match x with
    | Instr.Const (Constant.Int bv) -> Some (of_const bv)
    | _ -> Some (top ~width:(Types.bitwidth ty)))
  | ins -> (
    match Instr.result_ty ins with
    | Some ty when Types.is_integer ty -> Some (top ~width:(Types.bitwidth ty))
    | _ -> None)

let analyze (fn : Func.t) : env =
  let env = Hashtbl.create 32 in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun { Instr.def; ins } ->
          match (def, transfer env ins) with
          | Some d, Some f -> Hashtbl.replace env d f
          | _ -> ())
        b.insns)
    fn.blocks;
  env

(* isKnownToBeAPowerOfTwo, the Section 5.6 example.  True when the value
   is 1 << something or a constant power of two — *up to poison*. *)
let is_known_power_of_two (fn : Func.t) (op : Instr.operand) : bool =
  match op with
  | Instr.Const (Constant.Int bv) -> Bitvec.is_power_of_two bv
  | Instr.Const _ -> false
  | Instr.Var v -> (
    match Func.find_def fn v with
    | Some { Instr.ins = Instr.Binop (Instr.Shl, _, _, Instr.Const (Constant.Int one), _); _ }
      when Bitvec.is_one one ->
      true
    | Some { Instr.ins = Instr.Binop (Instr.Shl, attrs, _, base, _); _ } -> (
      ignore attrs;
      match base with
      | Instr.Const (Constant.Int bv) -> Bitvec.is_power_of_two bv
      | _ -> false)
    | _ -> false)

(* Known non-zero (up to poison): needed by the division-hoisting
   discussion of Sections 3.2 and 5.6. *)
let is_known_nonzero (fn : Func.t) (op : Instr.operand) : bool =
  match op with
  | Instr.Const (Constant.Int bv) -> not (Bitvec.is_zero bv)
  | _ -> is_known_power_of_two fn op

(* Guaranteed not to be poison or undef, a syntactic underapproximation
   of LLVM's isGuaranteedNotToBeUndefOrPoison: non-undef/poison
   constants, freeze results, and arguments are NOT guaranteed (they may
   be poison at call sites). *)
let rec not_undef_or_poison (fn : Func.t) (op : Instr.operand) : bool =
  match op with
  | Instr.Const (Constant.Int _) | Instr.Const (Constant.Null _) -> true
  | Instr.Const _ -> false
  | Instr.Var v -> (
    match Func.find_def fn v with
    | Some { Instr.ins = Instr.Freeze _; _ } -> true
    | Some { Instr.ins = Instr.Binop (op', attrs, _, a, b); _ } ->
      attrs = Instr.no_attrs
      && not (Instr.is_div op')
      && (op' <> Instr.Shl && op' <> Instr.LShr && op' <> Instr.AShr)
      && not_undef_or_poison fn a && not_undef_or_poison fn b
    | _ -> false)

let is_div = Instr.is_div
