(* Fixtures shared by the suites that serialize verdicts: test_exec
   (the journal) and test_serve (the wire). *)

(* One verdict of every shape the codec must carry: each kind; scalar
   and vector arguments with poison and undef lanes at widths 1 and 64;
   a witness with quotes, newlines, a control byte and non-ASCII bytes; and the Unknown
   reasons [Checker] and [Enum_check] give. *)
let verdicts : Ub_refine.Checker.verdict list =
  let open Ub_sem.Value in
  let bv w v = Conc (Ub_support.Bitvec.of_int64 ~width:w v) in
  Ub_refine.Checker.
    [ Refines;
      Counterexample
        { args = [ Scalar (bv 1 1L); Scalar (bv 64 (-1L)); Scalar Poison; Scalar Undef ];
          witness = "SAT model of the refinement violation" };
      Counterexample
        { args =
            [ Vector [| bv 1 0L; Poison; Undef; bv 1 1L |];
              Vector [| bv 64 Int64.min_int; Undef; bv 64 0x7fL; Poison |] ];
          witness = "src returns \"1\"\n\ttgt returns poison\x1b; caf\xc3\xa9 \xe2\x9c\x93" };
      Unknown "argument types differ";
      Unknown "return types differ";
      Unknown
        "refinement reads at least 12 of the source's 16 bits of nondeterministic choice \
         (max 10)";
      Unknown "not encodable: memory operation";
      Unknown "SAT budget exceeded";
      Unknown "input space too large or not enumerable";
      Unknown "behaviour space too large";
      Unknown "SAT: SAT budget exceeded; enumeration: behaviour space too large";
    ]

(* A truncation or a one-byte change of [s]. *)
let mutation (s : string) : string QCheck.Gen.t =
  let n = String.length s in
  QCheck.Gen.(
    oneof
      [ map (fun k -> String.sub s 0 k) (int_bound (n - 1));
        map2
          (fun i x ->
            String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c) s)
          (int_bound (n - 1)) (int_range 1 255) ])
