(* Bit-blasted bitvector arithmetic over [Circuit].  A symbolic bitvector
   is an array of circuit bits, LSB first.  Operations mirror [Bitvec]
   exactly — a qcheck property asserts agreement on random inputs. *)

open Ub_support

type t = Circuit.t array (* LSB first *)

let width (t : t) = Array.length t

let const ctx (bv : Bitvec.t) : t =
  ignore ctx;
  Array.init (Bitvec.width bv) (fun i -> Circuit.of_bool (Bitvec.get_bit bv i))

let fresh ctx ~width : t = Array.init width (fun _ -> Circuit.fresh ctx)

let zero _ctx ~width = Array.make width Circuit.bfalse

(* ------------------------------------------------------------------ *)
(* Bitwise                                                             *)
(* ------------------------------------------------------------------ *)

let map2 ctx f a b =
  if width a <> width b then invalid_arg "Bvterm: width mismatch";
  Array.init (width a) (fun i -> f ctx a.(i) b.(i))

let logand ctx = map2 ctx Circuit.band
let logor ctx = map2 ctx Circuit.bor
let logxor ctx = map2 ctx Circuit.bxor
let lognot ctx a = Array.map (Circuit.bnot ctx) a

let ite ctx c a b = map2 ctx (fun ctx x y -> Circuit.bite ctx c x y) a b

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

(* Ripple-carry adder; returns (sum, carry_out, carry_into_msb). *)
let add_full ctx a b ~carry_in =
  let w = width a in
  let sum = Array.make w Circuit.bfalse in
  let carry = ref carry_in in
  let carry_into_msb = ref carry_in in
  for i = 0 to w - 1 do
    if i = w - 1 then carry_into_msb := !carry;
    let x = a.(i) and y = b.(i) in
    sum.(i) <- Circuit.bxor ctx (Circuit.bxor ctx x y) !carry;
    carry :=
      Circuit.bor ctx (Circuit.band ctx x y) (Circuit.band ctx !carry (Circuit.bxor ctx x y))
  done;
  (sum, !carry, !carry_into_msb)

let add ctx a b =
  let s, _, _ = add_full ctx a b ~carry_in:Circuit.bfalse in
  s

let sub ctx a b =
  let s, _, _ = add_full ctx a (lognot ctx b) ~carry_in:Circuit.btrue in
  s

let neg ctx a = sub ctx (zero ctx ~width:(width a)) a

(* Unsigned overflow of a+b: carry out. *)
let add_nuw_overflows ctx a b =
  let _, cout, _ = add_full ctx a b ~carry_in:Circuit.bfalse in
  cout

(* Signed overflow of a+b: carry into MSB xor carry out of MSB. *)
let add_nsw_overflows ctx a b =
  let _, cout, cmsb = add_full ctx a b ~carry_in:Circuit.bfalse in
  Circuit.bxor ctx cout cmsb

(* a-b unsigned underflow: borrow = not carry-out of a + ~b + 1. *)
let sub_nuw_overflows ctx a b =
  let _, cout, _ = add_full ctx a (lognot ctx b) ~carry_in:Circuit.btrue in
  Circuit.bnot ctx cout

let sub_nsw_overflows ctx a b =
  let _, cout, cmsb = add_full ctx a (lognot ctx b) ~carry_in:Circuit.btrue in
  Circuit.bxor ctx cout cmsb

let zext ctx a ~width:w =
  ignore ctx;
  if w < width a then invalid_arg "Bvterm.zext";
  Array.init w (fun i -> if i < width a then a.(i) else Circuit.bfalse)

let sext ctx a ~width:w =
  ignore ctx;
  if w < width a then invalid_arg "Bvterm.sext";
  let msb = a.(width a - 1) in
  Array.init w (fun i -> if i < width a then a.(i) else msb)

let trunc _ctx a ~width:w =
  if w > width a then invalid_arg "Bvterm.trunc";
  Array.sub a 0 w

(* Shift-add multiplier.  Partial products are masked rows of [a]. *)
let mul ctx a b =
  let w = width a in
  let acc = ref (zero ctx ~width:w) in
  for i = 0 to w - 1 do
    (* row_i = (a << i) AND b.(i) *)
    let row =
      Array.init w (fun j -> if j < i then Circuit.bfalse else Circuit.band ctx a.(j - i) b.(i))
    in
    acc := add ctx !acc row
  done;
  !acc

(* Overflow checks for multiplication via widened product. *)
let mul_wide ctx a b =
  let w = width a in
  let aw = zext ctx a ~width:(2 * w) and bw = zext ctx b ~width:(2 * w) in
  mul ctx aw bw

let mul_nuw_overflows ctx a b =
  let w = width a in
  let wide = mul_wide ctx a b in
  Circuit.big_or ctx (Array.to_list (Array.sub wide w w))

let mul_nsw_overflows ctx a b =
  let w = width a in
  let aw = sext ctx a ~width:(2 * w) and bw = sext ctx b ~width:(2 * w) in
  let wide = mul ctx aw bw in
  (* overflow unless bits [w-1 .. 2w-1] all equal the sign bit wide[w-1] *)
  let sign = wide.(w - 1) in
  let ok =
    Circuit.big_and ctx
      (List.init w (fun i -> Circuit.beq ctx wide.(w + i - 1 + 1) sign))
  in
  (* note: bits w..2w-1 must equal sign *)
  Circuit.bnot ctx ok

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

let eq ctx a b =
  Circuit.big_and ctx (Array.to_list (map2 ctx Circuit.beq a b))

let ne ctx a b = Circuit.bnot ctx (eq ctx a b)

(* a < b unsigned: borrow out of a - b. *)
let ult ctx a b = sub_nuw_overflows ctx a b
let ule ctx a b = Circuit.bnot ctx (ult ctx b a)
let ugt ctx a b = ult ctx b a
let uge ctx a b = ule ctx b a

(* signed: flip sign bits and compare unsigned *)
let flip_sign ctx a =
  let w = width a in
  Array.init w (fun i -> if i = w - 1 then Circuit.bnot ctx a.(i) else a.(i))

let slt ctx a b = ult ctx (flip_sign ctx a) (flip_sign ctx b)
let sle ctx a b = Circuit.bnot ctx (slt ctx b a)
let sgt ctx a b = slt ctx b a
let sge ctx a b = sle ctx b a

let is_zero ctx a = Circuit.bnot ctx (Circuit.big_or ctx (Array.to_list a))

(* ------------------------------------------------------------------ *)
(* Shifts (barrel shifter over the log2 w low bits of the amount)      *)
(* ------------------------------------------------------------------ *)

(* [shift_oob ctx a n]: amount >= width (looking at the full amount). *)
let shift_oob ctx a n =
  let w = width a in
  let wbv = const ctx (Bitvec.of_int ~width:(width n) w) in
  uge ctx n wbv

let barrel ctx ~fill ~left a n =
  let w = width a in
  let stages = int_of_float (ceil (log (float_of_int w) /. log 2.0)) in
  let stages = max stages 1 in
  let cur = ref (Array.copy a) in
  for s = 0 to stages - 1 do
    let k = 1 lsl s in
    if s < width n then begin
      let shifted =
        Array.init w (fun i ->
            if left then if i - k >= 0 then !cur.(i - k) else fill i
            else if i + k < w then !cur.(i + k)
            else fill i)
      in
      cur := Array.init w (fun i -> Circuit.bite ctx n.(s) shifted.(i) !cur.(i))
    end
  done;
  !cur

let shl ctx a n = barrel ctx ~fill:(fun _ -> Circuit.bfalse) ~left:true a n
let lshr ctx a n = barrel ctx ~fill:(fun _ -> Circuit.bfalse) ~left:false a n

let ashr ctx a n =
  let msb = a.(width a - 1) in
  barrel ctx ~fill:(fun _ -> msb) ~left:false a n

(* shl nuw: shifted-out bits nonzero <=> lshr (shl a n) n <> a for nuw;
   nsw: ashr (shl a n) n <> a. *)
let shl_nuw_overflows ctx a n =
  let r = shl ctx a n in
  ne ctx (lshr ctx r n) a

let shl_nsw_overflows ctx a n =
  let r = shl ctx a n in
  ne ctx (ashr ctx r n) a

let lshr_exact_violated ctx a n = ne ctx (shl ctx (lshr ctx a n) n) a
let ashr_exact_violated = lshr_exact_violated

(* ------------------------------------------------------------------ *)
(* Division (restoring long division)                                  *)
(* ------------------------------------------------------------------ *)

(* Computes (quotient, remainder) of unsigned division, assuming the
   divisor is nonzero (the caller adds the UB side-condition). *)
let udiv_urem ctx a b =
  let w = width a in
  let r = ref (zero ctx ~width:w) in
  let q = Array.make w Circuit.bfalse in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a[i] *)
    r := Array.init w (fun j -> if j = 0 then a.(i) else !r.(j - 1));
    let ge = uge ctx !r b in
    let r' = sub ctx !r b in
    r := ite ctx ge r' !r;
    q.(i) <- ge
  done;
  (q, !r)

let udiv ctx a b = fst (udiv_urem ctx a b)
let urem ctx a b = snd (udiv_urem ctx a b)

(* Signed division truncating toward zero, like Bitvec.sdiv.  The
   INT_MIN/-1 case is immediate UB at the IR level; the circuit wraps
   (matching Bitvec) so the encoding stays total. *)
let sdiv_srem ctx a b =
  let w = width a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  let abs_ ctx x s = ite ctx s (neg ctx x) x in
  let qa = abs_ ctx a sa and qb = abs_ ctx b sb in
  let q, r = udiv_urem ctx qa qb in
  let qsign = Circuit.bxor ctx sa sb in
  (ite ctx qsign (neg ctx q) q, ite ctx sa (neg ctx r) r)

let sdiv ctx a b = fst (sdiv_srem ctx a b)
let srem ctx a b = snd (sdiv_srem ctx a b)

let sdiv_overflows ctx a b =
  let w = width a in
  let int_min = const ctx (Bitvec.min_signed w) in
  let all1 = const ctx (Bitvec.all_ones w) in
  Circuit.band ctx (eq ctx a int_min) (eq ctx b all1)
