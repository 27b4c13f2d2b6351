(* Evaluation of individual (non-memory, non-control) instructions under a
   semantics mode.  This file is the executable rendering of Figure 5 and
   of the alternative "old" semantics of Section 3.

   Conventions:
   - [Error msg] is immediate UB.
   - Each *use* of an undef scalar in an arithmetic context materializes
     an arbitrary concrete value through the oracle (Section 3.1: "each
     use of undef can yield a different result").  phi, select's chosen
     arm, freeze and return forward values without materializing.
   - In modes without undef, the undef constant denotes poison. *)

open Ub_support
open Ub_ir
open Instr

type 'a res = ('a, string) result

let ub msg = Error msg

(* Normalize a value that entered the program as a constant: in modes
   without undef, [undef] means poison. *)
let normalize (mode : Mode.t) (v : Value.t) : Value.t =
  if mode.undef_enabled then v
  else
    match v with
    | Value.Scalar Value.Undef -> Value.Scalar Value.Poison
    | Value.Vector es ->
      Value.Vector (Array.map (function Value.Undef -> Value.Poison | s -> s) es)
    | v -> v

(* Materialize one use of a scalar: undef becomes an arbitrary concrete
   value of the width; poison stays poison. *)
let materialize (oracle : Oracle.t) ~width (s : Value.scalar) : Value.scalar =
  match s with
  | Value.Undef -> Value.Conc (oracle.choose ~width)
  | s -> s

(* Lift a per-lane operation over scalar/vector values of a common
   shape. *)
let lanewise2 (ty : Types.t) f (a : Value.t) (b : Value.t) : Value.t res =
  let la = Value.lanes a and lb = Value.lanes b in
  if Array.length la <> Array.length lb then invalid_arg "Eval.lanewise2: shape mismatch";
  let out = Array.make (Array.length la) Value.Poison in
  let rec go i =
    if i >= Array.length la then Ok (Value.of_lanes ty out)
    else
      match f la.(i) lb.(i) with
      | Ok s ->
        out.(i) <- s;
        go (i + 1)
      | Error e -> Error e
  in
  go 0

(* The scalar fast path: a scalar result of a scalar-typed instruction,
   without the lane arrays of the vector path. *)
let scalar_res : Value.scalar res -> Value.t res = function
  | Ok s -> Ok (Value.Scalar s)
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Binary operations                                                   *)
(* ------------------------------------------------------------------ *)

let is_div = function UDiv | SDiv | URem | SRem -> true | _ -> false

let eval_binop_scalar (mode : Mode.t) (oracle : Oracle.t) op (attrs : attrs) ~width a b :
    Value.scalar res =
  (* Division checks the divisor *before* the poison-propagation rule:
     dividing by poison (which "could be" zero) is immediate UB in
     div_by_poison_ub modes, and dividing by a materialized undef that
     the oracle resolves to zero is UB as well. *)
  let a = materialize oracle ~width a in
  let b = materialize oracle ~width b in
  if is_div op then begin
    match b with
    | Value.Poison ->
      if mode.div_by_poison_ub then ub "division by poison" else Ok Value.Poison
    | Value.Undef -> assert false
    | Value.Conc bv when Bitvec.is_zero bv -> ub "division by zero"
    | Value.Conc _ -> (
      match a with
      | Value.Poison -> Ok Value.Poison
      | Value.Undef -> assert false
      | Value.Conc av -> (
        let bv = match b with Value.Conc x -> x | _ -> assert false in
        match op with
        | UDiv ->
          if attrs.exact && not (Bitvec.udiv_exact av bv) then Ok Value.Poison
          else Ok (Value.Conc (Bitvec.udiv av bv))
        | SDiv ->
          if Bitvec.sdiv_overflows av bv then ub "sdiv overflow (INT_MIN / -1)"
          else if attrs.exact && not (Bitvec.sdiv_exact av bv) then Ok Value.Poison
          else Ok (Value.Conc (Bitvec.sdiv av bv))
        | URem -> Ok (Value.Conc (Bitvec.urem av bv))
        | SRem ->
          if Bitvec.sdiv_overflows av bv then ub "srem overflow (INT_MIN / -1)"
          else Ok (Value.Conc (Bitvec.srem av bv))
        | _ -> assert false))
  end
  else
    match (a, b) with
    | Value.Poison, _ | _, Value.Poison -> Ok Value.Poison
    | Value.Undef, _ | _, Value.Undef -> assert false
    | Value.Conc x, Value.Conc y -> (
      match op with
      | Add ->
        if (attrs.nsw && Bitvec.add_nsw_overflows x y)
           || (attrs.nuw && Bitvec.add_nuw_overflows x y)
        then Ok Value.Poison
        else Ok (Value.Conc (Bitvec.add x y))
      | Sub ->
        if (attrs.nsw && Bitvec.sub_nsw_overflows x y)
           || (attrs.nuw && Bitvec.sub_nuw_overflows x y)
        then Ok Value.Poison
        else Ok (Value.Conc (Bitvec.sub x y))
      | Mul ->
        if (attrs.nsw && Bitvec.mul_nsw_overflows x y)
           || (attrs.nuw && Bitvec.mul_nuw_overflows x y)
        then Ok Value.Poison
        else Ok (Value.Conc (Bitvec.mul x y))
      | Shl ->
        if not (Bitvec.shift_in_range x y) then
          (* shift past bitwidth: deferred UB — undef historically,
             poison in the proposed semantics (Section 2.2) *)
          Ok (if mode.undef_enabled then Value.Undef else Value.Poison)
        else begin
          let n = Bitvec.to_uint_exn y in
          if (attrs.nsw && Bitvec.shl_nsw_overflows x n)
             || (attrs.nuw && Bitvec.shl_nuw_overflows x n)
          then Ok Value.Poison
          else Ok (Value.Conc (Bitvec.shl x n))
        end
      | LShr ->
        if not (Bitvec.shift_in_range x y) then
          Ok (if mode.undef_enabled then Value.Undef else Value.Poison)
        else begin
          let n = Bitvec.to_uint_exn y in
          if attrs.exact && not (Bitvec.lshr_exact x n) then Ok Value.Poison
          else Ok (Value.Conc (Bitvec.lshr x n))
        end
      | AShr ->
        if not (Bitvec.shift_in_range x y) then
          Ok (if mode.undef_enabled then Value.Undef else Value.Poison)
        else begin
          let n = Bitvec.to_uint_exn y in
          if attrs.exact && not (Bitvec.ashr_exact x n) then Ok Value.Poison
          else Ok (Value.Conc (Bitvec.ashr x n))
        end
      | And -> Ok (Value.Conc (Bitvec.logand x y))
      | Or -> Ok (Value.Conc (Bitvec.logor x y))
      | Xor -> Ok (Value.Conc (Bitvec.logxor x y))
      | UDiv | SDiv | URem | SRem -> assert false)

let eval_binop mode oracle op attrs ty a b : Value.t res =
  let width = Types.scalar_bitwidth (Types.element ty) in
  match (a, b) with
  | Value.Scalar x, Value.Scalar y when not (Types.is_vector ty) ->
    scalar_res (eval_binop_scalar mode oracle op attrs ~width x y)
  | _ -> lanewise2 ty (eval_binop_scalar mode oracle op attrs ~width) a b

(* ------------------------------------------------------------------ *)
(* icmp                                                                *)
(* ------------------------------------------------------------------ *)

let conc_true = Value.Conc (Bitvec.one 1)
let conc_false = Value.Conc (Bitvec.zero 1)

let eval_icmp_scalar (oracle : Oracle.t) pred ~width a b : Value.scalar res =
  let a = materialize oracle ~width a in
  let b = materialize oracle ~width b in
  match (a, b) with
  | Value.Poison, _ | _, Value.Poison -> Ok Value.Poison
  | Value.Undef, _ | _, Value.Undef -> assert false
  | Value.Conc x, Value.Conc y ->
    let r =
      match pred with
      | Eq -> Bitvec.eq x y
      | Ne -> Bitvec.ne x y
      | Ugt -> Bitvec.ugt x y
      | Uge -> Bitvec.uge x y
      | Ult -> Bitvec.ult x y
      | Ule -> Bitvec.ule x y
      | Sgt -> Bitvec.sgt x y
      | Sge -> Bitvec.sge x y
      | Slt -> Bitvec.slt x y
      | Sle -> Bitvec.sle x y
    in
    Ok (if r then conc_true else conc_false)

let eval_icmp (_mode : Mode.t) oracle pred ty a b : Value.t res =
  let width = Types.scalar_bitwidth (Types.element ty) in
  match (a, b) with
  | Value.Scalar x, Value.Scalar y when not (Types.is_vector ty) ->
    scalar_res (eval_icmp_scalar oracle pred ~width x y)
  | _ -> lanewise2 (Types.bool_shape ty) (eval_icmp_scalar oracle pred ~width) a b

(* ------------------------------------------------------------------ *)
(* select (the Section 3.4 battleground)                               *)
(* ------------------------------------------------------------------ *)

let eval_select_scalar (mode : Mode.t) (oracle : Oracle.t) c a b : Value.scalar res =
  let pick cond = if cond then a else b in
  match mode.select_sem with
  | Mode.Select_conditional -> (
    match c with
    | Value.Poison -> Ok Value.Poison
    | Value.Undef -> Ok (pick (Bitvec.is_one (oracle.choose ~width:1)))
    | Value.Conc bv -> Ok (pick (Bitvec.is_one bv)))
  | Mode.Select_nondet_cond -> (
    match c with
    | Value.Poison | Value.Undef -> Ok (pick (oracle.choose_bool ()))
    | Value.Conc bv -> Ok (pick (Bitvec.is_one bv)))
  | Mode.Select_ub_cond -> (
    match c with
    | Value.Poison -> ub "select on poison condition"
    | Value.Undef -> Ok (pick (Bitvec.is_one (oracle.choose ~width:1)))
    | Value.Conc bv -> Ok (pick (Bitvec.is_one bv)))
  | Mode.Select_arith -> (
    (* poison in any operand poisons the result (LangRef reading) *)
    match (c, a, b) with
    | Value.Poison, _, _ | _, Value.Poison, _ | _, _, Value.Poison -> Ok Value.Poison
    | Value.Undef, _, _ -> Ok (pick (Bitvec.is_one (oracle.choose ~width:1)))
    | Value.Conc bv, _, _ -> Ok (pick (Bitvec.is_one bv)))

let eval_select_lanes (mode : Mode.t) oracle c ty a b : Value.t res =
  let la = Value.lanes a and lb = Value.lanes b and lc = Value.lanes c in
  let n = Array.length la in
  let lc = if Array.length lc = n then lc else Array.make n lc.(0) in
  let out = Array.make n Value.Poison in
  let rec go i =
    if i >= n then Ok (Value.of_lanes ty out)
    else
      match eval_select_scalar mode oracle lc.(i) la.(i) lb.(i) with
      | Ok s ->
        out.(i) <- s;
        go (i + 1)
      | Error e -> Error e
  in
  go 0

let eval_select (mode : Mode.t) oracle c ty a b : Value.t res =
  match (c, a, b) with
  | Value.Scalar c, Value.Scalar x, Value.Scalar y when not (Types.is_vector ty) ->
    scalar_res (eval_select_scalar mode oracle c x y)
  | _ -> eval_select_lanes mode oracle c ty a b

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let eval_conv_scalar (oracle : Oracle.t) op ~from_w ~to_w s : Value.scalar =
  match materialize oracle ~width:from_w s with
  | Value.Poison -> Value.Poison
  | Value.Undef -> assert false
  | Value.Conc bv -> (
    match op with
    | Zext -> Value.Conc (Bitvec.zext bv ~width:to_w)
    | Sext -> Value.Conc (Bitvec.sext bv ~width:to_w)
    | Trunc -> Value.Conc (Bitvec.trunc bv ~width:to_w)
    | Ptrtoint | Inttoptr ->
      (* Integer <-> pointer casts reinterpret the address bits: LLVM
         zero-extends when the destination is wider, truncates when it
         is narrower.  Provenance lives at the memory-byte level, not in
         the scalar, so no further bookkeeping happens here. *)
      Value.Conc
        (if to_w >= from_w then Bitvec.zext bv ~width:to_w
         else Bitvec.trunc bv ~width:to_w))

let eval_conv (_mode : Mode.t) oracle op ~from ~to_ v : Value.t res =
  let from_w = Types.scalar_bitwidth (Types.element from) in
  let to_w = Types.scalar_bitwidth (Types.element to_) in
  match v with
  | Value.Scalar s when not (Types.is_vector to_) ->
    Ok (Value.Scalar (eval_conv_scalar oracle op ~from_w ~to_w s))
  | _ ->
    Ok (Value.of_lanes to_ (Array.map (eval_conv_scalar oracle op ~from_w ~to_w) (Value.lanes v)))

let eval_bitcast (mode : Mode.t) ~from ~to_ v : Value.t res =
  Ok (Value.bitcast ~mode ~from ~to_ v)

(* ------------------------------------------------------------------ *)
(* freeze (Section 4 / Figure 5)                                       *)
(* ------------------------------------------------------------------ *)

let freeze_scalar (oracle : Oracle.t) ~width = function
  | Value.Poison | Value.Undef -> Value.Conc (oracle.choose ~width)
  | s -> s

let eval_freeze (_mode : Mode.t) (oracle : Oracle.t) ty v : Value.t res =
  let width = Types.scalar_bitwidth (Types.element ty) in
  match v with
  | Value.Scalar s when not (Types.is_vector ty) ->
    Ok (Value.Scalar (freeze_scalar oracle ~width s))
  | _ -> Ok (Value.of_lanes ty (Array.map (freeze_scalar oracle ~width) (Value.lanes v)))

(* ------------------------------------------------------------------ *)
(* getelementptr                                                       *)
(* ------------------------------------------------------------------ *)

(* Pointer arithmetic: each index is sign-extended (or truncated) to the
   pointer width and scaled by the store size of the pointee (our IR has
   no aggregates, so GEP is array indexing; see DESIGN.md).  With
   [inbounds], wrapping the address space yields poison — this is what
   makes the induction-variable-widening of Figure 3 sound. *)
let eval_gep (oracle : Oracle.t) ~inbounds ~pointee base (indices : (Types.t * Value.t) list) :
    Value.t res =
  let pw = Types.pointer_bits in
  let elt_size = Types.store_size pointee in
  let base_s = materialize oracle ~width:pw (Value.as_scalar base) in
  let rec go acc = function
    | [] -> Ok (Value.Scalar acc)
    | (ity, idx) :: rest -> (
      let iw = Types.scalar_bitwidth (Types.element ity) in
      let idx_s = materialize oracle ~width:iw (Value.as_scalar idx) in
      match (acc, idx_s) with
      | Value.Poison, _ | _, Value.Poison -> Ok (Value.Scalar Value.Poison)
      | Value.Undef, _ | _, Value.Undef -> assert false
      | Value.Conc b, Value.Conc i ->
        (* 64-bit exact offset computation to detect wrapping *)
        let i64 = Bitvec.to_sint64 i in
        let off = Int64.mul i64 (Int64.of_int elt_size) in
        let b64 = Bitvec.to_uint64 b in
        let sum = Int64.add b64 off in
        let wraps =
          Int64.compare sum 0L < 0
          || Int64.unsigned_compare sum Memory.addr_space >= 0
          || Int64.compare off 0x8000_0000L >= 0
          || Int64.compare off (Int64.neg 0x8000_0000L) < 0
        in
        if inbounds && wraps then go Value.Poison rest
        else go (Value.Conc (Bitvec.of_int64 ~width:pw sum)) rest)
  in
  go base_s indices

(* ------------------------------------------------------------------ *)
(* Vector element access                                               *)
(* ------------------------------------------------------------------ *)

let eval_extractelement (oracle : Oracle.t) vty v idx : Value.t res =
  let n = match Types.vec_length vty with Some n -> n | None -> invalid_arg "extractelement" in
  match materialize oracle ~width:32 (Value.as_scalar idx) with
  | Value.Poison -> Ok (Value.Scalar Value.Poison)
  | Value.Undef -> assert false
  | Value.Conc i ->
    let i = Bitvec.to_uint_exn i in
    if i >= n then Ok (Value.Scalar Value.Poison)
    else Ok (Value.Scalar (Value.as_vector n v).(i))

let eval_insertelement (oracle : Oracle.t) vty v e idx : Value.t res =
  let n = match Types.vec_length vty with Some n -> n | None -> invalid_arg "insertelement" in
  match materialize oracle ~width:32 (Value.as_scalar idx) with
  | Value.Poison -> Ok (Value.poison_of_ty vty)
  | Value.Undef -> assert false
  | Value.Conc i ->
    let i = Bitvec.to_uint_exn i in
    if i >= n then Ok (Value.poison_of_ty vty)
    else begin
      let es = Array.copy (Value.as_vector n v) in
      es.(i) <- Value.as_scalar e;
      Ok (Value.Vector es)
    end

(* ------------------------------------------------------------------ *)
(* Branch condition resolution                                         *)
(* ------------------------------------------------------------------ *)

(* Resolve an i1 branch condition to a boolean, or UB.  This is where
   Branch_ub vs Branch_nondet (Section 3.3) bites. *)
let resolve_branch (mode : Mode.t) (oracle : Oracle.t) (c : Value.t) : bool res =
  match Value.as_scalar c with
  | Value.Conc bv -> Ok (Bitvec.is_one bv)
  | Value.Undef ->
    (* a *use* of undef: materialize — branching on undef is a
       nondeterministic choice in every old mode *)
    Ok (Bitvec.is_one (oracle.choose ~width:1))
  | Value.Poison -> (
    match mode.branch_on_poison with
    | Mode.Branch_ub -> ub "branch on poison"
    | Mode.Branch_nondet -> Ok (oracle.choose_bool ()))
