(* Runtime values and the bit-level representation of Section 4.2.

   A scalar is poison, undef (old modes only), or a concrete bitvector
   (integers and 32-bit pointer addresses share the representation; the
   type system of the IR keeps them apart).  Vector values are element-
   wise, exactly as in the paper's semantic domains:

     [[isz]]      = Num(sz) + {poison}            (+ {undef} in old modes)
     [[<sz x ty>]] = {0..sz-1} -> [[ty]]

   Bits (for ty-down / ty-up and for memory bytes) are four-valued:
   0, 1, poison, undef. *)

open Ub_support
open Ub_ir

type scalar =
  | Poison
  | Undef
  | Conc of Bitvec.t (* concrete; width = scalar bitwidth of the type *)

type t =
  | Scalar of scalar
  | Vector of scalar array

type bit = B0 | B1 | Bpoison | Bundef

let scalar_pp ppf = function
  | Poison -> Fmt.pf ppf "poison"
  | Undef -> Fmt.pf ppf "undef"
  | Conc bv -> Fmt.pf ppf "%s" (Bitvec.to_string bv)

let pp ppf = function
  | Scalar s -> scalar_pp ppf s
  | Vector es -> Fmt.pf ppf "<%a>" (Fmt.array ~sep:(Fmt.any ", ") scalar_pp) es

let to_string v = Fmt.str "%a" pp v

let scalar_equal a b =
  match (a, b) with
  | Poison, Poison | Undef, Undef -> true
  | Conc x, Conc y -> Bitvec.equal x y
  | (Poison | Undef | Conc _), _ -> false

let equal a b =
  match (a, b) with
  | Scalar x, Scalar y -> scalar_equal x y
  | Vector xs, Vector ys ->
    Array.length xs = Array.length ys && Array.for_all2 scalar_equal xs ys
  | (Scalar _ | Vector _), _ -> false

let compare = Stdlib.compare

let poison_of_ty (ty : Types.t) =
  match ty with
  | Types.Vec (n, _) -> Vector (Array.make n Poison)
  | _ -> Scalar Poison

let undef_of_ty (ty : Types.t) =
  match ty with
  | Types.Vec (n, _) -> Vector (Array.make n Undef)
  | _ -> Scalar Undef

let of_bitvec bv = Scalar (Conc bv)
let of_int ~width i = of_bitvec (Bitvec.of_int ~width i)
let bool b = of_int ~width:1 (if b then 1 else 0)

let is_poison = function Scalar Poison -> true | _ -> false
let contains_poison = function
  | Scalar Poison -> true
  | Scalar _ -> false
  | Vector es -> Array.exists (function Poison -> true | _ -> false) es

let contains_undef = function
  | Scalar Undef -> true
  | Scalar _ -> false
  | Vector es -> Array.exists (function Undef -> true | _ -> false) es

let as_scalar = function
  | Scalar s -> s
  | Vector _ -> invalid_arg "Value.as_scalar: vector"

let as_vector n = function
  | Vector es when Array.length es = n -> es
  | Vector _ -> invalid_arg "Value.as_vector: wrong length"
  | Scalar _ -> invalid_arg "Value.as_vector: scalar"

(* View any value as an array of lanes: scalars are 1-wide. *)
let lanes = function
  | Scalar s -> [| s |]
  | Vector es -> es

let of_lanes (ty : Types.t) lanes =
  match ty with
  | Types.Vec _ -> Vector lanes
  | _ ->
    if Array.length lanes <> 1 then invalid_arg "Value.of_lanes";
    Scalar lanes.(0)

(* The value of an IR constant. *)
let rec of_constant (c : Constant.t) : t =
  match c with
  | Constant.Int bv -> Scalar (Conc bv)
  | Constant.Null _ -> Scalar (Conc (Bitvec.zero Types.pointer_bits))
  | Constant.Undef ty -> undef_of_ty ty
  | Constant.Poison ty -> poison_of_ty ty
  | Constant.Vec (_, cs) ->
    let scalars =
      List.map
        (fun c ->
          match of_constant c with
          | Scalar s -> s
          | Vector _ -> invalid_arg "Value.of_constant: nested vector")
        cs
    in
    Vector (Array.of_list scalars)

(* ------------------------------------------------------------------ *)
(* ty-down / ty-up (Section 4.2)                                       *)
(* ------------------------------------------------------------------ *)

let scalar_to_bits ~width (s : scalar) : bit array =
  match s with
  | Poison -> Array.make width Bpoison
  | Undef -> Array.make width Bundef
  | Conc bv ->
    if Bitvec.width bv <> width then invalid_arg "Value.scalar_to_bits: width mismatch";
    let v = Bitvec.to_uint64 bv in
    let bits = Array.make width B0 in
    for i = 0 to width - 1 do
      if Int64.logand (Int64.shift_right_logical v i) 1L <> 0L then bits.(i) <- B1
    done;
    bits

(* ty-down: value -> low-level bit representation (LSB first). *)
let ty_down (ty : Types.t) (v : t) : bit array =
  match (ty, v) with
  | Types.Vec (n, elt), Vector es ->
    if Array.length es <> n then invalid_arg "Value.ty_down: vector length";
    let w = Types.scalar_bitwidth elt in
    Array.concat (Array.to_list (Array.map (scalar_to_bits ~width:w) es))
  | Types.Vec _, Scalar _ -> invalid_arg "Value.ty_down: scalar for vector type"
  | _, Scalar s -> scalar_to_bits ~width:(Types.scalar_bitwidth ty) s
  | _, Vector _ -> invalid_arg "Value.ty_down: vector for scalar type"

(* ty-up for one scalar lane: any poison bit poisons the lane; otherwise
   any undef bit makes it undef; otherwise concrete.  [normalize_loaded]
   below then collapses Undef to Poison in modes without undef / with
   poison-on-uninitialized-load. *)
let bits_to_scalar (bits : bit array) : scalar =
  let poison = ref false and undef = ref false and v = ref 0L in
  for i = 0 to Array.length bits - 1 do
    match bits.(i) with
    | B0 -> ()
    | B1 -> v := Int64.logor !v (Int64.shift_left 1L i)
    | Bpoison -> poison := true
    | Bundef -> undef := true
  done;
  if !poison then Poison
  else if !undef then Undef
  else Conc (Bitvec.of_int64 ~width:(Array.length bits) !v)

let normalize_loaded ~(mode : Mode.t) (s : scalar) : scalar =
  match s with
  | Undef when (not mode.Mode.undef_enabled) || mode.Mode.load_uninit_poison -> Poison
  | s -> s

(* ty-up: bit representation -> value. *)
let ty_up ~(mode : Mode.t) (ty : Types.t) (bits : bit array) : t =
  if Array.length bits <> Types.bitwidth ty then invalid_arg "Value.ty_up: width mismatch";
  match ty with
  | Types.Vec (n, elt) ->
    let w = Types.scalar_bitwidth elt in
    Vector
      (Array.init n (fun i ->
           normalize_loaded ~mode (bits_to_scalar (Array.sub bits (i * w) w))))
  | _ -> Scalar (normalize_loaded ~mode (bits_to_scalar bits))

(* Bitcast per Figure 5: ty2-up (ty1-down v).  Note this is *not* the
   identity on mixed vectors: a single poison lane of the source poisons
   every destination lane it overlaps. *)
let bitcast ~mode ~from ~to_ v = ty_up ~mode to_ (ty_down from v)

(* Refinement order on scalars: can a source scalar [s] justify a target
   scalar [t]?  poison covers everything; undef covers any non-poison;
   concrete covers only itself. *)
let scalar_covers ~src ~tgt =
  match (src, tgt) with
  | Poison, _ -> true
  | Undef, Poison -> false
  | Undef, _ -> true
  | Conc a, Conc b -> Bitvec.equal a b
  | Conc _, (Poison | Undef) -> false

let covers ~src ~tgt =
  match (src, tgt) with
  | Scalar a, Scalar b -> scalar_covers ~src:a ~tgt:b
  | Vector xs, Vector ys ->
    Array.length xs = Array.length ys
    && Array.for_all2 (fun a b -> scalar_covers ~src:a ~tgt:b) xs ys
  | (Scalar _ | Vector _), _ -> false
