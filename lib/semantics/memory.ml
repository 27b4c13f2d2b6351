(* The memory of Section 4.2: a partial map from 32-bit addresses to
   bitwise-defined bytes (<8 x i1> with per-bit poison/undef).  The map
   is kept as its allocations, each holding its own bytes, so loads and
   stores are checked for validity where they find their bytes —
   accessing outside any live allocation is immediate UB, as is access
   through a poison address.  A memory nothing was allocated in is one
   small record.

   Two extensions beyond the paper, following the two-phase low-level
   memory model of Beck et al. (arXiv 2404.16143):

   - Bytes carry *provenance*.  A byte written by a pointer-typed store
     remembers which allocation the stored pointer pointed into
     ([Prov_alloc base]); a pointer whose address does not fall in any
     live allocation (e.g. one recovered from an integer by [inttoptr])
     stores wildcard bytes ([Prov_wild]); integer-typed stores write
     provenance-free bytes ([Prov_none]).  Provenance does not gate
     loads — validity stays address-based — but it is part of the
     observable final memory (see [image_covers]), so rewrites that erase
     or forge provenance are distinguishable.

   - Memory runs in one of two *phases*.  The [Infinite] phase (the
     default, and the paper's semantics) never runs out of space below
     the 2^32 address-space cap.  A [Finite cap] phase models a machine
     with [cap] bytes: once the sum of allocation sizes would exceed
     [cap], [alloc] reports exhaustion ([None]) and the caller decides —
     [malloc] returns null, [alloca] is UB.  Refinement checking runs
     both sides under the *same* phase, so optimizations that trade heap
     for stack (malloc -> alloca) are refuted in the finite phase. *)

open Ub_support
open Ub_ir

type provenance =
  | Prov_none (* integer data: no provenance *)
  | Prov_wild (* pointer data not derived from a live allocation *)
  | Prov_alloc of int64 (* pointer data carrying its allocation's base *)

type byte = { bits : Value.bit array; (* length 8, LSB first *) prov : provenance }

type phase = Infinite | Finite of int (* capacity in bytes *)

(* [bytes.(i)] is the byte at [base + i].  Bases only grow, so
   allocations never overlap; a freed one keeps its bytes, which no
   access reaches. *)
type allocation = { base : int64; size : int; mutable live : bool; bytes : byte array }

type t = {
  mutable allocs : allocation list; (* newest first *)
  mutable next_base : int64;
  phase : phase;
  mutable used : int; (* sum of allocation sizes charged so far *)
}

let create ?(phase = Infinite) () = { allocs = []; next_base = 0x1000L; phase; used = 0 }

(* Byte records are shared, never mutated: a store replaces them.  A
   fresh allocation holds [uninit], and a store of eight concrete bits
   without provenance writes the shared record of their value. *)
let uninit = { bits = Array.make 8 Value.Bundef; prov = Prov_none }

let concrete_bytes =
  Array.init 256 (fun v ->
      { bits = Array.init 8 (fun j -> if v land (1 lsl j) <> 0 then Value.B1 else Value.B0);
        prov = Prov_none })

let addr_space = 0x1_0000_0000L (* 2^32 *)

(* Allocate [size] bytes; returns the base address, or [None] when the
   finite phase is out of capacity.  Contents start uninitialized (all
   Bundef, no provenance). *)
let alloc t ~size =
  if size <= 0 then invalid_arg "Memory.alloc: non-positive size";
  match t.phase with
  | Finite cap when t.used + size > cap -> None
  | Finite _ | Infinite ->
    let base = t.next_base in
    let nb = Int64.add base (Int64.of_int size) in
    if Int64.unsigned_compare nb addr_space >= 0 then
      failwith "Memory.alloc: address space exhausted";
    (* round next base up for alignment-friendly addresses *)
    t.next_base <- Int64.logand (Int64.add nb 15L) (Int64.lognot 15L);
    t.used <- t.used + size;
    t.allocs <- { base; size; live = true; bytes = Array.make size uninit } :: t.allocs;
    Some (Bitvec.of_int64 ~width:Types.pointer_bits base)

type free_result =
  | Freed
  | Free_double (* the address is the base of an allocation already freed *)
  | Free_not_base (* the address is not the base of any allocation *)

(* Freeing anything but the base of a live allocation is UB in the
   paper's semantics; the caller turns these results into UB verdicts
   rather than interpreter crashes. *)
let free t addr : free_result =
  let a = Bitvec.to_uint64 addr in
  match List.find_opt (fun al -> Int64.equal al.base a) t.allocs with
  | Some al when al.live ->
    al.live <- false;
    Freed
  | Some _ -> Free_double
  | None -> Free_not_base

(* The provenance a pointer with concrete address [a] carries when
   stored to memory: the base of the live allocation containing it, or
   wildcard if it points nowhere live. *)
let prov_of_addr t addr : provenance =
  let a = Bitvec.to_uint64 addr in
  match
    List.find_opt
      (fun al ->
        al.live
        && Int64.unsigned_compare a al.base >= 0
        && Int64.unsigned_compare (Int64.sub a al.base) (Int64.of_int al.size) < 0)
      t.allocs
  with
  | Some al -> Prov_alloc al.base
  | None -> Prov_wild

(* The live allocation holding the byte range [a, a+len), if any.
   Computed on offsets so that addresses near 2^64 cannot wrap past the
   end of an allocation and pass the bounds check spuriously. *)
let rec holding a len = function
  | [] -> None
  | al :: rest ->
    let off = Int64.sub a al.base in
    let size = Int64.of_int al.size in
    if
      al.live
      && Int64.unsigned_compare a al.base >= 0
      && Int64.unsigned_compare off size <= 0
      && Int64.unsigned_compare (Int64.of_int len) (Int64.sub size off) <= 0
    then Some al
    else holding a len rest

(* Is the byte range [addr, addr+len) inside a single live allocation?
   (A negative [len] reads as a huge unsigned one: never.) *)
let valid_range t addr len = holding (Bitvec.to_uint64 addr) len t.allocs <> None

(* Load [nbytes] bytes starting at [addr]; [None] if the access is
   invalid.  Result is a flat bit array, LSB of the first byte first
   (little-endian).  Provenance is not checked on load: validity is
   address-based. *)
let load_bits t addr ~nbytes : Value.bit array option =
  let a = Bitvec.to_uint64 addr in
  match holding a nbytes t.allocs with
  | None -> None
  | Some al ->
    let off = Int64.to_int (Int64.sub a al.base) in
    let out = Array.make (nbytes * 8) Value.Bundef in
    for i = 0 to nbytes - 1 do
      Array.blit al.bytes.(off + i).bits 0 out (i * 8) 8
    done;
    Some out

(* Byte [i] of a flat bit array, padded with Bundef past its end and
   tagged [prov]: the shared record when its eight bits are concrete and
   it carries no provenance. *)
let byte_at (bits : Value.bit array) i ~prov =
  let nbits = Array.length bits in
  let v = ref 0 and concrete = ref (match prov with Prov_none -> true | _ -> false) in
  for j = 0 to 7 do
    let k = (i * 8) + j in
    if k >= nbits then concrete := false
    else
      match bits.(k) with
      | Value.B0 -> ()
      | Value.B1 -> v := !v lor (1 lsl j)
      | Value.Bpoison | Value.Bundef -> concrete := false
  done;
  if !concrete then concrete_bytes.(!v)
  else
    let bit j = if (i * 8) + j < nbits then bits.((i * 8) + j) else Value.Bundef in
    { bits = Array.init 8 bit; prov }

(* Store a flat bit array (length divisible by 8 after padding).  Bits
   beyond the value's width within the last byte are left untouched only
   if the value is not byte-aligned — we pad with Bundef to the byte
   boundary, which models LLVM's "padding is undef".  [prov] is the
   provenance the written bytes carry (pointer-typed stores tag their
   bytes; everything else writes [Prov_none]). *)
let store_bits t ?(prov = Prov_none) addr (bits : Value.bit array) : bool =
  let nbytes = (Array.length bits + 7) / 8 in
  let a = Bitvec.to_uint64 addr in
  match holding a nbytes t.allocs with
  | None -> false
  | Some al ->
    let off = Int64.to_int (Int64.sub a al.base) in
    for i = 0 to nbytes - 1 do
      al.bytes.(off + i) <- byte_at bits i ~prov
    done;
    true

(* The observable final memory: every byte of every *live* allocation,
   with its address, in ascending address order.  Freed memory is dead
   and left out, so two observably-equivalent executions compare equal.
   Bases grow with every allocation and [allocs] is newest first, so
   prepending each allocation's bytes in turn yields ascending order.
   Byte records are shared, not copied. *)
type image = (int64 * byte) list

let snapshot t : image =
  List.fold_left
    (fun acc al ->
      if not al.live then acc
      else
        let rec from i acc =
          if i < 0 then acc
          else from (i - 1) ((Int64.add al.base (Int64.of_int i), al.bytes.(i)) :: acc)
        in
        from (al.size - 1) acc)
    [] t.allocs

(* A poison bit covers any bit; an undef bit covers 0, 1 and undef. *)
let bit_covers ~(src : Value.bit) ~(tgt : Value.bit) =
  match (src, tgt) with
  | Value.Bpoison, _ | Value.Bundef, (Value.B0 | Value.B1 | Value.Bundef) -> true
  | _ -> src = tgt

(* Does source memory [src] cover target memory [tgt]?  The address sets
   must be equal and every byte's bits covered.  With [~prov:true]
   provenance is observed too: a wildcard source byte covers any
   provenance (it may hold any pointer), and any other provenance must
   match exactly.  The IR-to-IR check observes it; translation
   validation does not, since the lowering legitimately erases it. *)
let rec image_covers ~prov ~(src : image) ~(tgt : image) =
  match (src, tgt) with
  | [], [] -> true
  | (a, s) :: src, (b, t) :: tgt ->
    Int64.equal a b
    && Array.for_all2 (fun s t -> bit_covers ~src:s ~tgt:t) s.bits t.bits
    && ((not prov) || s.prov = Prov_wild || s.prov = t.prov)
    && image_covers ~prov ~src ~tgt
  | _ -> false

(* For printing only: ';'-separated "<addr>=<8 bit chars>" entries, bits
   LSB first as 0/1/p/u, then a provenance suffix: nothing for
   [Prov_none], "*" for [Prov_wild], "@<base>" for [Prov_alloc]. *)
let image_to_string (img : image) : string =
  let bit_char = function
    | Value.B0 -> '0'
    | Value.B1 -> '1'
    | Value.Bpoison -> 'p'
    | Value.Bundef -> 'u'
  in
  String.concat ";"
    (List.map
       (fun (addr, byte) ->
         Printf.sprintf "%Lx=%s%s" addr
           (String.init (Array.length byte.bits) (fun i -> bit_char byte.bits.(i)))
           (match byte.prov with
           | Prov_none -> ""
           | Prov_wild -> "*"
           | Prov_alloc b -> Printf.sprintf "@%Lx" b))
       img)
