(* Fixed-width bitvectors, widths 1..64, with the full complement of LLVM
   integer operations including the overflow predicates needed by the
   [nsw]/[nuw]/[exact] instruction attributes.

   Representation invariant: [v] holds the unsigned value in the low
   [width] bits of an [int64]; all bits at and above [width] are zero. *)

type t = { width : int; v : int64 }

exception Width_mismatch of int * int

let max_width = 64

let mask_of_width w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let check_width w =
  if w < 1 || w > max_width then
    invalid_arg (Printf.sprintf "Bitvec: width %d out of range [1,64]" w)

let make ~width v =
  check_width width;
  { width; v = Int64.logand v (mask_of_width width) }

let of_int ~width i = make ~width (Int64.of_int i)
let of_int64 ~width v = make ~width v
let width t = t.width
let to_uint64 t = t.v

(* Sign-extend the low [width] bits of [v] to a full int64. *)
let sext64 t =
  if t.width = 64 then t.v
  else
    let shift = 64 - t.width in
    Int64.shift_right (Int64.shift_left t.v shift) shift

let to_sint64 = sext64

let to_uint_opt t =
  if t.width <= 62 then Some (Int64.to_int t.v)
  else if Int64.compare t.v 0L >= 0 && Int64.compare t.v (Int64.of_int max_int) <= 0
  then Some (Int64.to_int t.v)
  else None

let to_uint_exn t =
  match to_uint_opt t with
  | Some i -> i
  | None -> invalid_arg "Bitvec.to_uint_exn: does not fit in native int"

let zero width = make ~width 0L
let one width = make ~width 1L
let all_ones width = make ~width (-1L)
let min_signed width = make ~width (Int64.shift_left 1L (width - 1))
let max_signed width = make ~width (mask_of_width (width - 1))
let max_unsigned = all_ones

let is_zero t = Int64.equal t.v 0L
let is_one t = Int64.equal t.v 1L
let is_all_ones t = Int64.equal t.v (mask_of_width t.width)
let is_min_signed t = Int64.equal t.v (Int64.logand (Int64.shift_left 1L (t.width - 1)) (mask_of_width t.width))

let same_width a b = if a.width <> b.width then raise (Width_mismatch (a.width, b.width))

let equal a b = a.width = b.width && Int64.equal a.v b.v
let compare_raw a b =
  let c = compare a.width b.width in
  if c <> 0 then c else Int64.unsigned_compare a.v b.v

(* ------------------------------------------------------------------ *)
(* Arithmetic (modular)                                               *)
(* ------------------------------------------------------------------ *)

let add a b = same_width a b; make ~width:a.width (Int64.add a.v b.v)
let sub a b = same_width a b; make ~width:a.width (Int64.sub a.v b.v)
let mul a b = same_width a b; make ~width:a.width (Int64.mul a.v b.v)
let neg a = make ~width:a.width (Int64.neg a.v)

(* Division.  Callers must rule out division by zero (immediate UB at the
   IR level); we raise to catch logic errors early. *)
exception Division_by_zero

let udiv a b =
  same_width a b;
  if is_zero b then raise Division_by_zero;
  make ~width:a.width (Int64.unsigned_div a.v b.v)

let urem a b =
  same_width a b;
  if is_zero b then raise Division_by_zero;
  make ~width:a.width (Int64.unsigned_rem a.v b.v)

(* sdiv of min_signed by -1 overflows: immediate UB in LLVM.  We expose a
   predicate and make [sdiv] itself wrap like hardware would (trunc). *)
let sdiv_overflows a b = is_min_signed a && is_all_ones b

let sdiv a b =
  same_width a b;
  if is_zero b then raise Division_by_zero;
  if sdiv_overflows a b then a (* INT_MIN / -1 wraps to INT_MIN *)
  else make ~width:a.width (Int64.div (sext64 a) (sext64 b))

let srem a b =
  same_width a b;
  if is_zero b then raise Division_by_zero;
  if sdiv_overflows a b then zero a.width
  else make ~width:a.width (Int64.rem (sext64 a) (sext64 b))

(* ------------------------------------------------------------------ *)
(* Bitwise                                                            *)
(* ------------------------------------------------------------------ *)

let logand a b = same_width a b; { a with v = Int64.logand a.v b.v }
let logor a b = same_width a b; { a with v = Int64.logor a.v b.v }
let logxor a b = same_width a b; { a with v = Int64.logxor a.v b.v }
let lognot a = make ~width:a.width (Int64.lognot a.v)

(* Shifts.  Shift amounts >= width are *deferred UB* at the IR level; here
   the caller must pass an in-range amount. *)
let check_shift a n =
  if n < 0 || n >= a.width then
    invalid_arg (Printf.sprintf "Bitvec: shift amount %d out of range for i%d" n a.width)

let shl a n = check_shift a n; make ~width:a.width (Int64.shift_left a.v n)
let lshr a n = check_shift a n; { a with v = Int64.shift_right_logical a.v n }
let ashr a n = check_shift a n; make ~width:a.width (Int64.shift_right (sext64 a) n)

let shift_in_range a b =
  (* true iff the shift amount in [b] is < width of [a] *)
  Int64.unsigned_compare b.v (Int64.of_int a.width) < 0

(* ------------------------------------------------------------------ *)
(* Width changes                                                      *)
(* ------------------------------------------------------------------ *)

let zext t ~width =
  if width < t.width then invalid_arg "Bitvec.zext: narrowing";
  make ~width t.v

let sext t ~width =
  if width < t.width then invalid_arg "Bitvec.sext: narrowing";
  make ~width (sext64 t)

let trunc t ~width =
  if width > t.width then invalid_arg "Bitvec.trunc: widening";
  make ~width t.v

(* Concatenation: [concat hi lo] has hi in the high bits. *)
let concat hi lo =
  let w = hi.width + lo.width in
  check_width w;
  make ~width:w (Int64.logor (Int64.shift_left hi.v lo.width) lo.v)

(* [extract t ~hi ~lo] keeps bits lo..hi inclusive. *)
let extract t ~hi ~lo =
  if lo < 0 || hi >= t.width || lo > hi then invalid_arg "Bitvec.extract";
  make ~width:(hi - lo + 1) (Int64.shift_right_logical t.v lo)

let get_bit t i =
  if i < 0 || i >= t.width then invalid_arg "Bitvec.get_bit";
  Int64.equal (Int64.logand (Int64.shift_right_logical t.v i) 1L) 1L

let set_bit t i b =
  if i < 0 || i >= t.width then invalid_arg "Bitvec.set_bit";
  let m = Int64.shift_left 1L i in
  if b then { t with v = Int64.logor t.v m }
  else { t with v = Int64.logand t.v (Int64.lognot m) }

let of_bits bits =
  let w = Array.length bits in
  check_width w;
  let v = ref 0L in
  for i = w - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 1) (if bits.(i) then 1L else 0L)
  done;
  (* careful: loop above shifts in MSB-first order over reversed indices *)
  make ~width:w !v

let to_bits t = Array.init t.width (fun i -> get_bit t i)

(* ------------------------------------------------------------------ *)
(* Comparisons                                                        *)
(* ------------------------------------------------------------------ *)

let ucompare a b = same_width a b; Int64.unsigned_compare a.v b.v
let scompare a b = same_width a b; Int64.compare (sext64 a) (sext64 b)

let eq a b = same_width a b; Int64.equal a.v b.v
let ne a b = not (eq a b)
let ult a b = ucompare a b < 0
let ule a b = ucompare a b <= 0
let ugt a b = ucompare a b > 0
let uge a b = ucompare a b >= 0
let slt a b = scompare a b < 0
let sle a b = scompare a b <= 0
let sgt a b = scompare a b > 0
let sge a b = scompare a b >= 0

(* ------------------------------------------------------------------ *)
(* 128-bit helpers for overflow detection                              *)
(* ------------------------------------------------------------------ *)

(* Full 64x64 -> 128 unsigned multiply, via 32-bit limbs. *)
let umul128 (a : int64) (b : int64) : int64 * int64 =
  let lo32 = 0xFFFFFFFFL in
  let a0 = Int64.logand a lo32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b lo32 and b1 = Int64.shift_right_logical b 32 in
  let p00 = Int64.mul a0 b0 in
  let p01 = Int64.mul a0 b1 in
  let p10 = Int64.mul a1 b0 in
  let p11 = Int64.mul a1 b1 in
  let mid0 = Int64.add p01 p10 in
  let mid = Int64.add mid0 (Int64.shift_right_logical p00 32) in
  (* Either addition can carry out of 64 bits (p01 + p10 < 2^65 - 2^33,
     and adding p00 >> 32 < 2^32 can push a sum just below 2^64 over the
     edge); at most one of the two carries fires for any given inputs,
     so a single 2^32 correction term suffices — but both comparisons
     are needed.  Checking only the first add loses the high bit for
     operands like 0xFFFFFFFFFFFFFFFF * 0x00000002FFFFFFFF. *)
  let carry_mid =
    if Int64.unsigned_compare mid0 p01 < 0 || Int64.unsigned_compare mid mid0 < 0 then
      0x100000000L
    else 0L
  in
  let lo = Int64.logor (Int64.shift_left mid 32) (Int64.logand p00 lo32) in
  let hi =
    Int64.add (Int64.add p11 (Int64.shift_right_logical mid 32)) carry_mid
  in
  (hi, lo)

(* Signed 64x64 -> 128: adjust the unsigned product. *)
let smul128 (a : int64) (b : int64) : int64 * int64 =
  let hi, lo = umul128 a b in
  let hi = if Int64.compare a 0L < 0 then Int64.sub hi b else hi in
  let hi = if Int64.compare b 0L < 0 then Int64.sub hi a else hi in
  (hi, lo)

(* ------------------------------------------------------------------ *)
(* Overflow predicates (nsw / nuw / exact)                             *)
(* ------------------------------------------------------------------ *)

let add_nuw_overflows a b =
  same_width a b;
  if a.width < 64 then
    Int64.unsigned_compare (Int64.add a.v b.v) (mask_of_width a.width) > 0
  else Int64.unsigned_compare (Int64.add a.v b.v) a.v < 0

let add_nsw_overflows a b =
  same_width a b;
  if a.width < 64 then begin
    let s = Int64.add (sext64 a) (sext64 b) in
    Int64.compare s (sext64 (max_signed a.width)) > 0
    || Int64.compare s (sext64 (min_signed a.width)) < 0
  end
  else begin
    let sa = sext64 a and sb = sext64 b in
    let s = Int64.add sa sb in
    (Int64.compare sa 0L >= 0) = (Int64.compare sb 0L >= 0)
    && (Int64.compare s 0L >= 0) <> (Int64.compare sa 0L >= 0)
  end

let sub_nuw_overflows a b = same_width a b; Int64.unsigned_compare a.v b.v < 0

let sub_nsw_overflows a b =
  same_width a b;
  if a.width < 64 then begin
    let s = Int64.sub (sext64 a) (sext64 b) in
    Int64.compare s (sext64 (max_signed a.width)) > 0
    || Int64.compare s (sext64 (min_signed a.width)) < 0
  end
  else begin
    let sa = sext64 a and sb = sext64 b in
    let s = Int64.sub sa sb in
    (Int64.compare sa 0L >= 0) <> (Int64.compare sb 0L >= 0)
    && (Int64.compare s 0L >= 0) <> (Int64.compare sa 0L >= 0)
  end

let mul_nuw_overflows a b =
  same_width a b;
  if a.width <= 32 then
    Int64.unsigned_compare (Int64.mul a.v b.v) (mask_of_width a.width) > 0
  else begin
    let hi, lo = umul128 a.v b.v in
    if a.width = 64 then not (Int64.equal hi 0L)
    else
      (not (Int64.equal hi 0L))
      || Int64.unsigned_compare lo (mask_of_width a.width) > 0
  end

let mul_nsw_overflows a b =
  same_width a b;
  if a.width <= 32 then begin
    let s = Int64.mul (sext64 a) (sext64 b) in
    Int64.compare s (sext64 (max_signed a.width)) > 0
    || Int64.compare s (sext64 (min_signed a.width)) < 0
  end
  else begin
    let hi, lo = smul128 (sext64 a) (sext64 b) in
    if a.width = 64 then
      (* fits iff hi is the sign-extension of lo *)
      not (Int64.equal hi (Int64.shift_right lo 63))
    else begin
      (* product must lie in [-2^(w-1), 2^(w-1)-1]; since |operands| <
         2^63 the product fits in the signed 128 given by (hi,lo); check
         hi is sign extension of lo and lo within range after sext *)
      let fits64 = Int64.equal hi (Int64.shift_right lo 63) in
      fits64
      && (Int64.compare lo (sext64 (max_signed a.width)) > 0
          || Int64.compare lo (sext64 (min_signed a.width)) < 0)
      || not fits64
    end
  end

let shl_nuw_overflows a n =
  (* some one-bit shifted past the top *)
  check_shift a n;
  if n = 0 then false
  else not (is_zero (lshr a (a.width - n)))

let shl_nsw_overflows a n =
  check_shift a n;
  if n = 0 then false
  else
    (* nsw shl overflows unless all shifted-out bits plus the resulting
       sign bit equal the original sign bit *)
    let res = shl a n in
    not (equal (ashr res n) a)

let udiv_exact a b = is_zero (urem a b)
let sdiv_exact a b = if sdiv_overflows a b then false else is_zero (srem a b)

let lshr_exact a n = n = 0 || is_zero (extract a ~hi:(n - 1) ~lo:0)
let ashr_exact = lshr_exact

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let popcount t =
  let rec go acc v =
    if Int64.equal v 0L then acc
    else go (acc + 1) (Int64.logand v (Int64.sub v 1L))
  in
  go 0 t.v

let is_power_of_two t = popcount t = 1

let count_leading_zeros t =
  let rec go i = if i < 0 then t.width else if get_bit t i then t.width - 1 - i else go (i - 1) in
  go (t.width - 1)

let count_trailing_zeros t =
  let rec go i = if i >= t.width then t.width else if get_bit t i then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Printing / parsing                                                  *)
(* ------------------------------------------------------------------ *)

let to_string_signed t = Printf.sprintf "%Ld" (sext64 t)

let to_string t =
  (* Render the way LLVM prints constants: as signed decimal. *)
  to_string_signed t

let pp ppf t = Fmt.pf ppf "%s" (to_string t)

let of_string ~width s =
  check_width width;
  let s = String.trim s in
  let v =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      Int64.of_string ("0x" ^ String.sub s 2 (String.length s - 2))
    else Int64.of_string s
  in
  make ~width v

(* Successor in unsigned order, for exhaustive enumeration; None on wrap. *)
let next t =
  if is_all_ones t then None else Some (add t (one t.width))

let fold_all ~width ~init ~f =
  (* Iterate all 2^width values; only sensible for small widths. *)
  if width > 24 then invalid_arg "Bitvec.fold_all: width too large";
  let n = 1 lsl width in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := f !acc (of_int ~width i)
  done;
  !acc

let all ~width =
  if width > 24 then invalid_arg "Bitvec.all: width too large";
  List.init (1 lsl width) (fun i -> of_int ~width i)
