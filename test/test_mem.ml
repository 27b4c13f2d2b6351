(* The memory model: the three memory.ml bugfix regressions (overflow in
   valid_range, freed bytes in the final memory, invalid free crashing
   instead of UB), the final-memory covering relation, the
   integer/pointer casts, the two-phase
   infinite/finite semantics, and a byte-level edge-case suite — each
   edge case checked differentially (the SAT path must never contradict
   the enumeration path on memory programs; it answers Unknown and the
   enumeration checker is authoritative). *)

open Ub_support
open Ub_ir
open Ub_sem
module Checker = Ub_refine.Checker
module Enum_check = Ub_refine.Enum_check

let parse = Parser.parse_func_string

let run ?(mode = Mode.proposed) ?phase src args =
  let fn = parse src in
  (Interp.run ~mode ?phase fn args).Interp.outcome

let check_ret name expected outcome =
  Alcotest.(check string) name expected (Interp.outcome_to_string outcome)

(* Differential harness for a (src, tgt) pair: the enumeration verdict
   must be [expected], and the SAT path must not contradict it (on
   memory programs it answers Unknown). *)
let differential name expected ~src ~tgt =
  let src = parse src and tgt = parse tgt in
  let enum =
    match Enum_check.check ~src ~tgt () with
    | Enum_check.Refines -> "refines"
    | Enum_check.Counterexample _ -> "counterexample"
    | Enum_check.Unknown r -> "unknown: " ^ r
  in
  Alcotest.(check string) (name ^ ": enumeration verdict") expected enum;
  match Checker.check_sat Mode.proposed ~src ~tgt with
  | Checker.Unknown _ -> ()
  | Checker.Refines ->
    if expected <> "refines" then
      Alcotest.failf "%s: SAT says refines, enumeration says %s" name enum
  | Checker.Counterexample _ ->
    if expected <> "counterexample" then
      Alcotest.failf "%s: SAT says counterexample, enumeration says %s" name enum

(* ------------------------------------------------------------------ *)
(* Bugfix regressions                                                  *)
(* ------------------------------------------------------------------ *)

(* Bugfix 1: valid_range used a wrapping Int64.add, so an address near
   2^64 wrapped past zero and the unsigned bounds check passed
   spuriously.  (Pre-fix this test fails: the range was "valid".) *)
let valid_range_no_wrap () =
  let mem = Memory.create () in
  let _p = Option.get (Memory.alloc mem ~size:4) in
  let near_top = Bitvec.of_int64 ~width:64 0xFFFF_FFFF_FFFF_FFFFL in
  Alcotest.(check bool) "range wrapping past zero is out of bounds" false
    (Memory.valid_range mem near_top 2);
  Alcotest.(check bool) "negative length is out of bounds" false
    (Memory.valid_range mem (Bitvec.of_int64 ~width:64 0x1000L) (-1))

let image = Alcotest.testable (Fmt.of_to_string Memory.image_to_string) ( = )

(* Bugfix 2: the final memory folded in every byte in the table,
   including freed allocations, so two executions that diverge only in
   dead bytes compared unequal.  (Pre-fix: the snapshots differ.) *)
let snapshot_ignores_freed () =
  let with_byte v =
    let mem = Memory.create () in
    let p = Option.get (Memory.alloc mem ~size:1) in
    assert (Memory.store_bits mem p (Value.ty_down (Types.Int 8) (Value.of_int ~width:8 v)));
    ignore (Memory.free mem p);
    Memory.snapshot mem
  in
  Alcotest.check image "freed bytes do not show" (with_byte 1) (with_byte 2);
  Alcotest.check image "nothing live" [] (with_byte 1);
  (* the same divergence through the interpreter: free, then nothing
     live differs, so the pair refines in both directions *)
  let prog v =
    Printf.sprintf
      {|define i8 @f() {
e:
  %%p = call i8* @malloc(i32 1)
  store i8 %d, i8* %%p
  call void @free(i8* %%p)
  ret i8 0
}|}
      v
  in
  differential "free-then-diverge-in-dead-bytes" "refines" ~src:(prog 1) ~tgt:(prog 2);
  differential "free-then-diverge (other direction)" "refines" ~src:(prog 2) ~tgt:(prog 1)

(* Bugfix 3: Memory.free raised [failwith] on a non-base or freed
   address; the interpreter crashed, and the pool recorded the program
   as a crash instead of a UB verdict.  (Pre-fix these tests fail with
   an escaping Failure exception.) *)
let invalid_free_is_ub () =
  check_ret "double free" "UB: double free"
    (run {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 4)
  call void @free(i8* %p)
  call void @free(i8* %p)
  ret i8 0
}|} []);
  check_ret "free of an interior pointer" "UB: free of non-allocation address"
    (run {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 4)
  %q = getelementptr i8, i8* %p, i32 1
  call void @free(i8* %q)
  ret i8 0
}|} []);
  check_ret "free of a never-allocated address" "UB: free of non-allocation address"
    (run {|define i8 @f() {
e:
  %p = inttoptr i32 64 to i8*
  call void @free(i8* %p)
  ret i8 0
}|} []);
  check_ret "free(null) is a no-op" "ret 0"
    (run {|define i8 @f() {
e:
  %p = inttoptr i32 0 to i8*
  call void @free(i8* %p)
  ret i8 0
}|} []);
  check_ret "free of poison pointer" "UB: free of poison pointer"
    (run {|define i8 @f() {
e:
  call void @free(i8* poison)
  ret i8 0
}|} []);
  check_ret "use after free" "UB: load from invalid address"
    (run {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  call void @free(i8* %p)
  %x = load i8, i8* %p
  ret i8 %x
}|} [])

(* ------------------------------------------------------------------ *)
(* Integer/pointer casts                                               *)
(* ------------------------------------------------------------------ *)

let cast_roundtrip_parses () =
  let src = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %i = ptrtoint i8* %p to i32
  %q = inttoptr i32 %i to i8*
  store i8 7, i8* %q
  %x = load i8, i8* %p
  ret i8 %x
}|} in
  let fn = parse src in
  Alcotest.(check (list string)) "validates" [] (Validate.check_func fn);
  let fn2 = parse (Printer.func_to_string fn) in
  Alcotest.(check bool) "print/parse roundtrip" true (Func.equal fn fn2);
  check_ret "store through the round-tripped alias is visible" "ret 7" (run src [])

let cast_validation () =
  let bad = parse {|define i32 @f(i32 %x) {
e:
  %p = ptrtoint i32 %x to i32
  ret i32 %p
}|} in
  Alcotest.(check bool) "ptrtoint from integer is rejected" true
    (Validate.check_func bad <> []);
  let bad2 = parse {|define i8* @f(i8* %x) {
e:
  %p = inttoptr i8* %x to i8*
  ret i8* %p
}|} in
  Alcotest.(check bool) "inttoptr from pointer is rejected" true
    (Validate.check_func bad2 <> [])

let cast_widths () =
  (* ptrtoint truncates to narrower, zero-extends to wider; the first
     allocation sits at 0x1000, so i8 sees 0 and i64 sees 0x1000 *)
  check_ret "ptrtoint to i8 truncates" "ret 0"
    (run {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %i = ptrtoint i8* %p to i8
  ret i8 %i
}|} []);
  check_ret "ptrtoint to i64 zero-extends" "ret 4096"
    (run {|define i64 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %i = ptrtoint i8* %p to i64
  ret i64 %i
}|} [])

(* ------------------------------------------------------------------ *)
(* Two-phase memory                                                    *)
(* ------------------------------------------------------------------ *)

let finite_phase_alloc () =
  let mem = Memory.create ~phase:(Memory.Finite 0) () in
  Alcotest.(check bool) "finite(0): allocation fails" true (Memory.alloc mem ~size:1 = None);
  let mem4 = Memory.create ~phase:(Memory.Finite 4) () in
  Alcotest.(check bool) "finite(4): first 4 bytes fit" true
    (Memory.alloc mem4 ~size:4 <> None);
  Alcotest.(check bool) "finite(4): the fifth byte does not" true
    (Memory.alloc mem4 ~size:1 = None)

let finite_phase_interp () =
  let exhausted_malloc = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  store i8 1, i8* %p
  ret i8 0
}|} in
  check_ret "exhausted malloc returns null (store traps)" "UB: store to invalid address"
    (run ~phase:(Memory.Finite 0) exhausted_malloc []);
  check_ret "infinite phase is unaffected" "ret 0" (run exhausted_malloc []);
  check_ret "exhausted alloca is UB" "UB: alloca: out of memory"
    (run ~phase:(Memory.Finite 0) {|define i8 @f() {
e:
  %p = call i8* @alloca(i32 1)
  ret i8 0
}|} [])

let malloc_to_alloca_refuted () =
  (* heap-to-stack promotion: indistinguishable in the infinite phase,
     refuted by the finite phase where malloc yields null but alloca is
     UB — the enumeration checker runs both sides under each phase *)
  let src = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  ret i8 0
}|} in
  let tgt = {|define i8 @f() {
e:
  %p = call i8* @alloca(i32 1)
  ret i8 0
}|} in
  differential "malloc => alloca" "counterexample" ~src ~tgt;
  differential "malloc refines itself" "refines" ~src ~tgt:src

(* ------------------------------------------------------------------ *)
(* Final-memory covering                                               *)
(* ------------------------------------------------------------------ *)

(* A byte from its bits written LSB first as 0/1/p/u. *)
let byte ?(prov = Memory.Prov_none) bits =
  let bit = function
    | '0' -> Value.B0
    | '1' -> Value.B1
    | 'p' -> Value.Bpoison
    | _ -> Value.Bundef
  in
  { Memory.bits = Array.init 8 (fun i -> bit bits.[i]); prov }

let one ?prov bits : Memory.image = [ (0x1000L, byte ?prov bits) ]

(* One case per rule of [Memory.image_covers]. *)
let image_covers_table () =
  let w = Memory.Prov_wild and a = Memory.Prov_alloc 0x1000L and b = Memory.Prov_alloc 0x2000L in
  let z = "00000000" and p = "pppppppp" in
  let two x y = [ (0x1000L, byte x); (0x1001L, byte y) ] in
  List.iter
    (fun (name, prov, src, tgt, want) ->
      Alcotest.(check bool) name want (Memory.image_covers ~prov ~src ~tgt))
    [ ("equal bytes cover", true, one "01pu01pu", one "01pu01pu", true);
      ("poison covers 0, 1, undef, poison", true, one p, one "01up01up", true);
      ("undef covers 0, 1, undef", true, one "uuuuuuuu", one "01u01u01", true);
      ("undef does not cover poison", true, one "uuuuuuuu", one "uuuuuuup", false);
      ("0 does not cover 1", true, one z, one "10000000", false);
      ("1 does not cover undef", true, one "11111111", one "1111111u", false);
      ("0 does not cover poison", true, one z, one "p0000000", false);
      ("wildcard covers no provenance", true, one ~prov:w z, one z, true);
      ("wildcard covers an allocation", true, one ~prov:w z, one ~prov:a z, true);
      ("wildcard covers wildcard", true, one ~prov:w z, one ~prov:w z, true);
      ("same allocation covers", true, one ~prov:a z, one ~prov:a z, true);
      ("other allocation does not cover", true, one ~prov:a z, one ~prov:b z, false);
      ("allocation does not cover none", true, one ~prov:a z, one z, false);
      ("none does not cover an allocation", true, one z, one ~prov:a z, false);
      ("none does not cover wildcard", true, one z, one ~prov:w z, false);
      ("~prov:false ignores provenance", false, one z, one ~prov:a z, true);
      ("~prov:false ignores other allocations", false, one ~prov:a "uuuuuuuu", one ~prov:b z, true);
      ("~prov:false still compares bits", false, one ~prov:a z, one ~prov:a "01000000", false);
      ("empty covers empty", true, [], [], true);
      ("different addresses never cover", true, one p, [ (0x1001L, byte z) ], false);
      ("a longer target is not covered", false, one p, two z z, false);
      ("a shorter target is not covered", false, two p p, one z, false);
      ("empty does not cover a byte", false, [], one "uuuuuuuu", false);
    ]

(* The textual relation final memories were compared by before they
   became typed images, over "addr=bits[prov]" entries as
   [Memory.image_to_string] prints them: the reference the typed
   relation must agree with. *)
let ref_entry_covers (src : string) (tgt : string) =
  match (String.index_opt src '=', String.index_opt tgt '=') with
  | Some is_, Some it ->
    String.sub src 0 is_ = String.sub tgt 0 it
    && String.length src >= is_ + 9
    && String.length tgt >= it + 9
    && begin
      let bits_ok = ref true in
      for i = 1 to 8 do
        let cs = src.[is_ + i] and ct = tgt.[it + i] in
        if cs <> ct then
          match (cs, ct) with
          | 'p', _ -> ()
          | 'u', ('0' | '1' | 'u') -> ()
          | _ -> bits_ok := false
      done;
      let prov_s = String.sub src (is_ + 9) (String.length src - is_ - 9) in
      let prov_t = String.sub tgt (it + 9) (String.length tgt - it - 9) in
      !bits_ok && (prov_s = "*" || prov_s = prov_t)
    end
  | _ -> src = tgt

let ref_mem_covers ~prov (src : string) (tgt : string) =
  let split s = if s = "" then [] else String.split_on_char ';' s in
  let strip_prov entry =
    match String.index_opt entry '=' with
    | Some i when String.length entry >= i + 9 -> String.sub entry 0 (i + 9)
    | _ -> entry
  in
  let es = split src and et = split tgt in
  let es, et = if prov then (es, et) else (List.map strip_prov es, List.map strip_prov et) in
  List.length es = List.length et && List.for_all2 ref_entry_covers es et

(* Random (prov, src, tgt) triples: bytes over a small address pool with
   every bit value and provenance kind.  Most targets perturb the
   source's bytes a little, so both verdicts are common; the rest move
   the source's bytes to other addresses or have bytes of their own. *)
let gen_covers_case =
  let open QCheck2.Gen in
  let bit = oneofl Value.[ B0; B1; Bpoison; Bundef ] in
  let prov =
    oneof
      [ pure Memory.Prov_none; pure Memory.Prov_wild;
        map (fun b -> Memory.Prov_alloc b) (oneofl [ 0x1000L; 0x1010L; 0x20000L ]);
      ]
  in
  let byte = map2 (fun bits prov -> { Memory.bits; prov }) (array_repeat 8 bit) prov in
  let near (b : Memory.byte) =
    map2
      (fun bits prov -> { Memory.bits; prov })
      (flatten_a (Array.map (fun x -> frequency [ (7, pure x); (1, bit) ]) b.bits))
      (frequency [ (7, pure b.prov); (1, prov) ])
  in
  let pool = [ 0x1000L; 0x1001L; 0x1002L; 0x1010L; 0x1011L ] in
  let image =
    int_bound 31 >>= fun mask ->
    flatten_l
      (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) pool
      |> List.map (fun a -> map (fun b -> (a, b)) byte))
  in
  bool >>= fun prov ->
  image >>= fun src ->
  map
    (fun tgt -> (prov, src, tgt))
    (frequency
       [ (3, flatten_l (List.map (fun (a, b) -> map (fun b -> (a, b)) (near b)) src));
         (1, pure (List.map (fun (a, b) -> (Int64.add a 0x100L, b)) src));
         (1, image);
       ])

let image_covers_matches_text =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"image_covers agrees with the textual relation" ~count:2000
       ~print:(fun (prov, src, tgt) ->
         Printf.sprintf "prov:%b src:%s tgt:%s" prov (Memory.image_to_string src)
           (Memory.image_to_string tgt))
       gen_covers_case
       (fun (prov, src, tgt) ->
         Memory.image_covers ~prov ~src ~tgt
         = ref_mem_covers ~prov (Memory.image_to_string src) (Memory.image_to_string tgt)))

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let provenance_observable () =
  (* storing a pointer as a ptrtoint'd integer leaves identical bits
     but erases the bytes' provenance: observable in the final memory *)
  let src = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %pp = call i8** @malloc(i32 4)
  store i8* %p, i8** %pp
  ret i8 0
}|} in
  let tgt = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %pp = call i8** @malloc(i32 4)
  %i = ptrtoint i8* %p to i32
  %c = bitcast i8** %pp to i32*
  store i32 %i, i32* %c
  ret i8 0
}|} in
  differential "pointer store demoted to integer store" "counterexample" ~src ~tgt;
  differential "pointer store refines itself" "refines" ~src ~tgt:src;
  (* a wildcard pointer (inttoptr with no live target) covers any
     provenance, so re-deriving a pointer from a forged integer on both
     sides still refines *)
  let wild = {|define i8 @f() {
e:
  %pp = call i8** @malloc(i32 4)
  %q = inttoptr i32 64 to i8*
  store i8* %q, i8** %pp
  ret i8 0
}|} in
  differential "wild pointer store refines itself" "refines" ~src:wild ~tgt:wild

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let zero_size_alloc () =
  check_ret "malloc(0) is UB" "UB: malloc of zero bytes"
    (run {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 0)
  ret i8 0
}|} []);
  let mem = Memory.create () in
  Alcotest.check_raises "Memory.alloc rejects size 0"
    (Invalid_argument "Memory.alloc: non-positive size") (fun () ->
      ignore (Memory.alloc mem ~size:0));
  Alcotest.check_raises "Memory.alloc rejects negative size"
    (Invalid_argument "Memory.alloc: non-positive size") (fun () ->
      ignore (Memory.alloc mem ~size:(-3)))

let exact_end_access () =
  (* a 2-byte allocation: a full-width i16 access is fine, the same
     access shifted one byte spans the exact end and is UB *)
  let at_base = {|define i16 @f() {
e:
  %p = call i16* @malloc(i32 2)
  store i16 513, i16* %p
  %x = load i16, i16* %p
  ret i16 %x
}|} in
  check_ret "access up to the exact end is valid" "ret 513" (run at_base []);
  let off_end = {|define i16 @f() {
e:
  %p = call i8* @malloc(i32 2)
  %q = getelementptr i8, i8* %p, i32 1
  %c = bitcast i8* %q to i16*
  %x = load i16, i16* %c
  ret i16 %x
}|} in
  check_ret "access spanning the end is UB" "UB: load from invalid address" (run off_end []);
  differential "in-bounds load refines itself" "refines" ~src:at_base ~tgt:at_base;
  differential "oob load refines itself" "refines" ~src:off_end ~tgt:off_end;
  differential "oob is not covered by in-bounds" "counterexample" ~src:at_base ~tgt:off_end

let straddling_store_padding_undef () =
  (* an unaligned i16 store into the middle of a 4-byte buffer: the
     stored bytes read back exactly, the two untouched padding bytes
     stay uninitialized and load as poison (proposed mode) *)
  let src = {|define i16 @f() {
e:
  %p = call i8* @malloc(i32 4)
  %q = getelementptr i8, i8* %p, i32 1
  %c = bitcast i8* %q to i16*
  store i16 258, i16* %c
  %x = load i16, i16* %c
  ret i16 %x
}|} in
  check_ret "unaligned store reads back" "ret 258" (run src []);
  let pad = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 4)
  %q = getelementptr i8, i8* %p, i32 1
  %c = bitcast i8* %q to i16*
  store i16 258, i16* %c
  %x = load i8, i8* %p
  ret i8 %x
}|} in
  check_ret "the byte below the store stays uninitialized" "ret poison" (run pad []);
  differential "straddling store refines itself" "refines" ~src ~tgt:src

let partial_overlapping_store () =
  (* store i16 0x1234, overwrite its high byte with 0x2B, read i16 back:
     the load combines the two stores byte-wise -> 0x2B34 = 11060 *)
  let src = {|define i16 @f() {
e:
  %p = call i16* @malloc(i32 2)
  store i16 4660, i16* %p
  %b = bitcast i16* %p to i8*
  %q = getelementptr i8, i8* %b, i32 1
  store i8 43, i8* %q
  %x = load i16, i16* %p
  ret i16 %x
}|} in
  check_ret "overlapping store combines byte-wise" "ret 11060" (run src []);
  differential "overlapping store refines itself" "refines" ~src ~tgt:src

(* ------------------------------------------------------------------ *)
(* The new catalog entries fire and are refuted                        *)
(* ------------------------------------------------------------------ *)

let entry_cex name src_text =
  let e = Ub_opt.Inject.find_exn name in
  let src = parse src_text in
  let tgt = e.Ub_opt.Inject.apply src in
  if Func.equal src tgt then Alcotest.failf "%s: entry did not fire" name;
  (match Validate.check_func tgt with
  | [] -> ()
  | errs ->
    Alcotest.failf "%s: rewritten function is invalid: %s" name (String.concat "; " errs));
  match Checker.check Mode.proposed ~src ~tgt with
  | Checker.Counterexample _ -> ()
  | v -> Alcotest.failf "%s: expected counterexample, got %s" name (Checker.verdict_to_string v)

let store_forward_alias_refuted () =
  entry_cex "store-forward-alias"
    {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  store i8 1, i8* %p
  %i = ptrtoint i8* %p to i32
  %q = inttoptr i32 %i to i8*
  store i8 2, i8* %q
  %x = load i8, i8* %p
  ret i8 %x
}|}

let load_widen_oob_refuted () =
  entry_cex "load-widen-oob"
    {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %x = load i8, i8* %p
  ret i8 %x
}|}

let malloc_to_alloca_entry_refuted () =
  entry_cex "malloc-to-alloca" {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  ret i8 0
}|}

let store_ptr_int_refuted () =
  entry_cex "store-ptr-int"
    {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 1)
  %pp = call i8** @malloc(i32 4)
  store i8* %p, i8** %pp
  ret i8 0
}|}

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mem"
    [ ( "regressions",
        [ Alcotest.test_case "valid_range does not wrap" `Quick valid_range_no_wrap;
          Alcotest.test_case "snapshot ignores freed allocations" `Quick snapshot_ignores_freed;
          Alcotest.test_case "invalid free is UB, not a crash" `Quick invalid_free_is_ub;
        ] );
      ( "casts",
        [ Alcotest.test_case "ptrtoint/inttoptr roundtrip" `Quick cast_roundtrip_parses;
          Alcotest.test_case "cast type validation" `Quick cast_validation;
          Alcotest.test_case "cast widths" `Quick cast_widths;
        ] );
      ( "two-phase",
        [ Alcotest.test_case "finite-phase allocation" `Quick finite_phase_alloc;
          Alcotest.test_case "finite-phase interpretation" `Quick finite_phase_interp;
          Alcotest.test_case "malloc=>alloca is refuted" `Quick malloc_to_alloca_refuted;
        ] );
      ( "covers",
        [ Alcotest.test_case "one case per rule" `Quick image_covers_table;
          image_covers_matches_text;
        ] );
      ( "provenance",
        [ Alcotest.test_case "provenance is observable" `Quick provenance_observable ]
      );
      ( "edge-cases",
        [ Alcotest.test_case "zero/negative-size alloc" `Quick zero_size_alloc;
          Alcotest.test_case "access at the exact end" `Quick exact_end_access;
          Alcotest.test_case "straddling store, padding undef" `Quick
            straddling_store_padding_undef;
          Alcotest.test_case "partial overlapping store" `Quick partial_overlapping_store;
        ] );
      ( "catalog",
        [ Alcotest.test_case "store-forward-alias refuted" `Quick store_forward_alias_refuted;
          Alcotest.test_case "load-widen-oob refuted" `Quick load_widen_oob_refuted;
          Alcotest.test_case "malloc-to-alloca refuted" `Quick malloc_to_alloca_entry_refuted;
          Alcotest.test_case "store-ptr-int refuted" `Quick store_ptr_int_refuted;
        ] );
    ]
