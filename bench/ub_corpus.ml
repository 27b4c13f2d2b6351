(* The seeded checker-query corpus shared by `bench solver` and the
   regression tests.  Everything here is deterministic: the Section-3
   matrix under two semantics modes, handcrafted wide-width identities,
   and an enumerated opt-fuzz slice. *)

open Ub_ir

type query = {
  qname : string;
  qmode : string; (* Mode.name *)
  qsrc : Func.t;
  qtgt : Func.t;
}

let fn = Parser.parse_func_string

let handcrafted : (string * string * string * string) list =
  (* (name, mode, src, tgt) — identities across widths; the sound ones
     make the solver produce UNSAT proofs, which is where CDCL earns
     its keep; a couple are deliberately refuted (SAT). *)
  [ ( "mul2-to-add-i16", "proposed",
      {|define i16 @f(i16 %x) {
e:
  %y = mul i16 %x, 2
  ret i16 %y
}|},
      {|define i16 @f(i16 %x) {
e:
  %y = add i16 %x, %x
  ret i16 %y
}|} );
    ( "mul-comm-i8", "proposed",
      {|define i8 @f(i8 %a, i8 %b) {
e:
  %y = mul i8 %a, %b
  ret i8 %y
}|},
      {|define i8 @f(i8 %a, i8 %b) {
e:
  %y = mul i8 %b, %a
  ret i8 %y
}|} );
    ( "mul3-to-addchain-i8", "proposed",
      {|define i8 @f(i8 %x) {
e:
  %y = mul i8 %x, 3
  ret i8 %y
}|},
      {|define i8 @f(i8 %x) {
e:
  %t = add i8 %x, %x
  %y = add i8 %t, %x
  ret i8 %y
}|} );
    ( "reassoc-i16", "proposed",
      {|define i16 @f(i16 %a, i16 %b, i16 %c) {
e:
  %t = add i16 %a, %b
  %y = add i16 %t, %c
  ret i16 %y
}|},
      {|define i16 @f(i16 %a, i16 %b, i16 %c) {
e:
  %t = add i16 %b, %c
  %y = add i16 %a, %t
  ret i16 %y
}|} );
    ( "shl1-to-mul2-i16", "proposed",
      {|define i16 @f(i16 %x) {
e:
  %y = shl i16 %x, 1
  ret i16 %y
}|},
      {|define i16 @f(i16 %x) {
e:
  %y = mul i16 %x, 2
  ret i16 %y
}|} );
    ( "xor-cancel-i32", "proposed",
      {|define i32 @f(i32 %a, i32 %b) {
e:
  %t = xor i32 %a, %b
  %y = xor i32 %t, %b
  ret i32 %y
}|},
      {|define i32 @f(i32 %a, i32 %b) {
e:
  ret i32 %a
}|} );
    ( "demorgan-i32", "proposed",
      {|define i32 @f(i32 %a, i32 %b) {
e:
  %na = xor i32 %a, -1
  %nb = xor i32 %b, -1
  %y = and i32 %na, %nb
  ret i32 %y
}|},
      {|define i32 @f(i32 %a, i32 %b) {
e:
  %o = or i32 %a, %b
  %y = xor i32 %o, -1
  ret i32 %y
}|} );
    ( "sub-to-neg-add-i16", "proposed",
      {|define i16 @f(i16 %a, i16 %x) {
e:
  %y = sub i16 %a, %x
  ret i16 %y
}|},
      {|define i16 @f(i16 %a, i16 %x) {
e:
  %n = sub i16 0, %x
  %y = add i16 %a, %n
  ret i16 %y
}|} );
    ( "select-min-flip-i16", "proposed",
      {|define i16 @f(i16 %a, i16 %b) {
e:
  %c = icmp slt i16 %a, %b
  %y = select i1 %c, i16 %a, i16 %b
  ret i16 %y
}|},
      {|define i16 @f(i16 %a, i16 %b) {
e:
  %c = icmp sge i16 %a, %b
  %y = select i1 %c, i16 %b, i16 %a
  ret i16 %y
}|} );
    ( "icmp-add-nsw-i16", "proposed",
      {|define i1 @f(i16 %x) {
e:
  %y = add nsw i16 %x, 1
  %c = icmp slt i16 %x, %y
  ret i1 %c
}|},
      {|define i1 @f(i16 %x) {
e:
  ret i1 1
}|} );
    (* refuted identities: the solver must find a model *)
    ( "icmp-add-wrapping-i16-SAT", "proposed",
      {|define i1 @f(i16 %x) {
e:
  %y = add i16 %x, 1
  %c = icmp slt i16 %x, %y
  ret i1 %c
}|},
      {|define i1 @f(i16 %x) {
e:
  ret i1 1
}|} );
    ( "mul2-to-add-undef-i8-SAT", "old-unswitch",
      {|define i8 @f(i8 %x) {
e:
  %y = mul i8 %x, 2
  ret i8 %y
}|},
      {|define i8 @f(i8 %x) {
e:
  %y = add i8 %x, %x
  ret i8 %y
}|} );
  ]

(* Enumerated opt-fuzz slice: every changed (fn, optimized fn) pair from
   the first [limit] 3-instruction i2 functions, like T-OPTFUZZ does,
   capped to keep the corpus bounded.  Enumeration order is
   deterministic, so this is a fixed corpus. *)
let fuzz_pairs () : query list =
  let params = { Ub_fuzz.Gen.default_params with Ub_fuzz.Gen.n_insns = 3 } in
  let pairs = ref [] in
  let n = ref 0 in
  let _ =
    Ub_fuzz.Gen.enumerate ~limit:1_500 params (fun f ->
        if !n < 40 then begin
          let f' =
            Ub_opt.Pass.run_pipeline Ub_opt.Pass.prototype Ub_opt.Pipeline.fuzz_passes f
          in
          if f' <> f then begin
            incr n;
            pairs :=
              { qname = Printf.sprintf "optfuzz3-%03d" !n;
                qmode = "proposed";
                qsrc = f;
                qtgt = f';
              }
              :: !pairs
          end
        end)
  in
  List.rev !pairs

let matrix_queries () : query list =
  List.concat_map
    (fun (e : Ub_refine.Matrix.entry) ->
      (* enum-only entries (explicit inputs) are outside check_sat's
         fragment; skip them rather than benchmark a constant-time
         "not encodable" bailout *)
      if e.Ub_refine.Matrix.inputs <> None then []
      else
        List.map
          (fun mode_name ->
            { qname = "matrix-" ^ e.Ub_refine.Matrix.id;
              qmode = mode_name;
              qsrc = fn e.Ub_refine.Matrix.src;
              qtgt = fn e.Ub_refine.Matrix.tgt;
            })
          [ "proposed"; "old-langref" ])
    Ub_refine.Matrix.all_entries

let handcrafted_queries () : query list =
  List.map
    (fun (name, mode, src, tgt) ->
      { qname = name; qmode = mode; qsrc = fn src; qtgt = fn tgt })
    handcrafted

(* The 90-query `bench solver` corpus, in its committed order. *)
let corpus () : query list = matrix_queries () @ handcrafted_queries () @ fuzz_pairs ()
