(* Instructions of the IR (Figure 4 of the paper), plus [sub], [mul],
   the remaining shifts/bitwise ops, [call], and an [inbounds] flag on
   [getelementptr] — all of which the paper's examples use or imply.

   Every instruction carries enough type annotations that its result type
   is computable locally, without an environment. *)

type var = string (* SSA register name, printed with a leading % *)
type label = string (* basic-block label *)

type operand =
  | Var of var
  | Const of Constant.t

type binop =
  | Add
  | Sub
  | Mul
  | UDiv
  | SDiv
  | URem
  | SRem
  | Shl
  | LShr
  | AShr
  | And
  | Or
  | Xor

(* Instruction attributes producing deferred UB: [nsw]/[nuw] on add/sub/
   mul/shl, [exact] on udiv/sdiv/lshr/ashr. *)
type attrs = { nsw : bool; nuw : bool; exact : bool }

let no_attrs = { nsw = false; nuw = false; exact = false }
let nsw_only = { no_attrs with nsw = true }

type icmp_pred = Eq | Ne | Ugt | Uge | Ult | Ule | Sgt | Sge | Slt | Sle

type conv_op = Zext | Sext | Trunc | Ptrtoint | Inttoptr

type t =
  | Binop of binop * attrs * Types.t * operand * operand
  | Icmp of icmp_pred * Types.t * operand * operand
      (* operand type recorded; result is [Types.bool_shape ty] *)
  | Select of operand * Types.t * operand * operand
      (* select i1 %c, ty %a, ty %b (condition may be <n x i1> for vectors) *)
  | Conv of conv_op * Types.t * operand * Types.t (* from-type, operand, to-type *)
  | Bitcast of Types.t * operand * Types.t
  | Freeze of Types.t * operand
  | Phi of Types.t * (operand * label) list
  | Gep of { inbounds : bool; pointee : Types.t; base : operand; indices : (Types.t * operand) list }
  | Load of Types.t * operand (* loaded type, pointer operand *)
  | Store of Types.t * operand * operand (* stored type, value, pointer: no result *)
  | Call of Types.t option * string * (Types.t * operand) list
      (* return type (None = void), callee, typed arguments *)
  | Extractelement of Types.t * operand * operand (* vector type, vector, index *)
  | Insertelement of Types.t * operand * operand * operand
      (* vector type, vector, scalar element, index *)

type terminator =
  | Ret of Types.t * operand
  | Ret_void
  | Br of label
  | Cond_br of operand * label * label (* i1 condition, then-label, else-label *)
  | Unreachable

(* A named instruction: [def] is [None] exactly for void instructions
   (store, void call). *)
type named = { def : var option; ins : t }

(* ------------------------------------------------------------------ *)
(* Result types                                                        *)
(* ------------------------------------------------------------------ *)

let result_ty = function
  | Binop (_, _, ty, _, _) -> Some ty
  | Icmp (_, ty, _, _) -> Some (Types.bool_shape ty)
  | Select (_, ty, _, _) -> Some ty
  | Conv (_, _, _, to_ty) -> Some to_ty
  | Bitcast (_, _, to_ty) -> Some to_ty
  | Freeze (ty, _) -> Some ty
  | Phi (ty, _) -> Some ty
  | Gep { pointee; base = _; _ } -> Some (Types.Ptr pointee)
  | Load (ty, _) -> Some ty
  | Store _ -> None
  | Call (ret, _, _) -> ret
  | Extractelement (vty, _, _) -> Some (Types.element vty)
  | Insertelement (vty, _, _, _) -> Some vty

let is_void ins = result_ty ins = None

(* Operands of an instruction, in syntactic order. *)
let operands = function
  | Binop (_, _, _, a, b) -> [ a; b ]
  | Icmp (_, _, a, b) -> [ a; b ]
  | Select (c, _, a, b) -> [ c; a; b ]
  | Conv (_, _, x, _) -> [ x ]
  | Bitcast (_, x, _) -> [ x ]
  | Freeze (_, x) -> [ x ]
  | Phi (_, incoming) -> List.map fst incoming
  | Gep { base; indices; _ } -> base :: List.map snd indices
  | Load (_, p) -> [ p ]
  | Store (_, v, p) -> [ v; p ]
  | Call (_, _, args) -> List.map snd args
  | Extractelement (_, v, i) -> [ v; i ]
  | Insertelement (_, v, e, i) -> [ v; e; i ]

let term_operands = function
  | Ret (_, x) -> [ x ]
  | Cond_br (c, _, _) -> [ c ]
  | Ret_void | Br _ | Unreachable -> []

let successors = function
  | Br l -> [ l ]
  | Cond_br (_, a, b) -> [ a; b ]
  | Ret _ | Ret_void | Unreachable -> []

(* Map a function over the operands of an instruction (for substitution,
   renaming, RAUW).  Structure and types are preserved.  [f] is applied
   to the operands left to right, in [operands] order, so a counter
   inside [f] numbers them as [operands] does.  (OCaml evaluates
   constructor arguments right to left, hence the [let]s.) *)
let map_operands f = function
  | Binop (op, at, ty, a, b) ->
    let a = f a in
    Binop (op, at, ty, a, f b)
  | Icmp (p, ty, a, b) ->
    let a = f a in
    Icmp (p, ty, a, f b)
  | Select (c, ty, a, b) ->
    let c = f c in
    let a = f a in
    Select (c, ty, a, f b)
  | Conv (op, from, x, to_) -> Conv (op, from, f x, to_)
  | Bitcast (from, x, to_) -> Bitcast (from, f x, to_)
  | Freeze (ty, x) -> Freeze (ty, f x)
  | Phi (ty, incoming) -> Phi (ty, List.map (fun (v, l) -> (f v, l)) incoming)
  | Gep g ->
    let base = f g.base in
    Gep { g with base; indices = List.map (fun (t, v) -> (t, f v)) g.indices }
  | Load (ty, p) -> Load (ty, f p)
  | Store (ty, v, p) ->
    let v = f v in
    Store (ty, v, f p)
  | Call (r, name, args) -> Call (r, name, List.map (fun (t, v) -> (t, f v)) args)
  | Extractelement (ty, v, i) ->
    let v = f v in
    Extractelement (ty, v, f i)
  | Insertelement (ty, v, e, i) ->
    let v = f v in
    let e = f e in
    Insertelement (ty, v, e, f i)

let map_term_operands f = function
  | Ret (ty, x) -> Ret (ty, f x)
  | Cond_br (c, a, b) -> Cond_br (f c, a, b)
  | (Ret_void | Br _ | Unreachable) as t -> t

let map_term_labels f = function
  | Br l -> Br (f l)
  | Cond_br (c, a, b) -> Cond_br (c, f a, f b)
  | (Ret _ | Ret_void | Unreachable) as t -> t

(* Map the type annotations of an instruction, retyping the embedded
   constants in lockstep via [fc] (the shrink engine's width-narrowing
   and vector-shortening passes rewrite both together).  Operand
   variables are untouched. *)
let map_types fty fc ins =
  let fop = function Const c -> Const (fc c) | Var _ as v -> v in
  match ins with
  | Binop (op, at, ty, a, b) -> Binop (op, at, fty ty, fop a, fop b)
  | Icmp (p, ty, a, b) -> Icmp (p, fty ty, fop a, fop b)
  | Select (c, ty, a, b) -> Select (fop c, fty ty, fop a, fop b)
  | Conv (op, from, x, to_) -> Conv (op, fty from, fop x, fty to_)
  | Bitcast (from, x, to_) -> Bitcast (fty from, fop x, fty to_)
  | Freeze (ty, x) -> Freeze (fty ty, fop x)
  | Phi (ty, incoming) -> Phi (fty ty, List.map (fun (v, l) -> (fop v, l)) incoming)
  | Gep g ->
    Gep
      { g with
        pointee = fty g.pointee;
        base = fop g.base;
        indices = List.map (fun (t, v) -> (fty t, fop v)) g.indices
      }
  | Load (ty, p) -> Load (fty ty, fop p)
  | Store (ty, v, p) -> Store (fty ty, fop v, fop p)
  | Call (r, name, args) ->
    Call (Option.map fty r, name, List.map (fun (t, v) -> (fty t, fop v)) args)
  | Extractelement (ty, v, i) -> Extractelement (fty ty, fop v, fop i)
  | Insertelement (ty, v, e, i) -> Insertelement (fty ty, fop v, fop e, fop i)

let map_term_types fty fc = function
  | Ret (ty, x) -> Ret (fty ty, (match x with Const c -> Const (fc c) | v -> v))
  | Cond_br (c, a, b) -> Cond_br ((match c with Const cc -> Const (fc cc) | v -> v), a, b)
  | (Ret_void | Br _ | Unreachable) as t -> t

(* Does this instruction touch memory or have side effects (and hence must
   not be speculated, duplicated or removed freely)? *)
let has_side_effects = function
  | Store _ | Call _ -> true
  | Load _ -> false (* loads are movable but not removable-blind; see opt *)
  | _ -> false

(* Can this instruction be freely speculated (executed even when the
   original program would not)?  Division can trap (immediate UB on zero
   divisor); loads/stores can fault. *)
let speculatable = function
  | Binop ((UDiv | SDiv | URem | SRem), _, _, _, _) -> false
  | Load _ | Store _ | Call _ -> false
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Printing helpers                                                    *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | UDiv -> "udiv"
  | SDiv -> "sdiv"
  | URem -> "urem"
  | SRem -> "srem"
  | Shl -> "shl"
  | LShr -> "lshr"
  | AShr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let binop_of_name = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "udiv" -> Some UDiv
  | "sdiv" -> Some SDiv
  | "urem" -> Some URem
  | "srem" -> Some SRem
  | "shl" -> Some Shl
  | "lshr" -> Some LShr
  | "ashr" -> Some AShr
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | _ -> None

let pred_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Ugt -> "ugt"
  | Uge -> "uge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Slt -> "slt"
  | Sle -> "sle"

let pred_of_name = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "ugt" -> Some Ugt
  | "uge" -> Some Uge
  | "ult" -> Some Ult
  | "ule" -> Some Ule
  | "sgt" -> Some Sgt
  | "sge" -> Some Sge
  | "slt" -> Some Slt
  | "sle" -> Some Sle
  | _ -> None

let conv_name = function
  | Zext -> "zext"
  | Sext -> "sext"
  | Trunc -> "trunc"
  | Ptrtoint -> "ptrtoint"
  | Inttoptr -> "inttoptr"

(* Which attributes may legally decorate which binop. *)
let attrs_ok op { nsw; nuw; exact } =
  match op with
  | Add | Sub | Mul | Shl -> not exact
  | UDiv | SDiv | LShr | AShr -> (not nsw) && not nuw
  | URem | SRem | And | Or | Xor -> (not nsw) && (not nuw) && not exact

let is_div = function UDiv | SDiv | URem | SRem -> true | _ -> false

let commutative = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | UDiv | SDiv | URem | SRem | Shl | LShr | AShr -> false
