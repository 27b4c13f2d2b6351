(* Semantics: the Figure 5 rules, mode differences, undef/poison
   propagation, memory, ty-up/ty-down, and behaviour enumeration. *)

open Ub_support
open Ub_ir
open Ub_sem

let parse = Parser.parse_func_string
let vi ?(w = 8) i = Value.of_int ~width:w i
let poison = Value.Scalar Value.Poison
let undef = Value.Scalar Value.Undef

let run ?(mode = Mode.proposed) ?oracle src args =
  let fn = parse src in
  (Interp.run ~mode ?oracle fn args).Interp.outcome

let check_ret name expected outcome =
  Alcotest.(check string) name expected (Interp.outcome_to_string outcome)

let simple op = Printf.sprintf {|define i8 @f(i8 %%a, i8 %%b) {
e:
  %%x = %s i8 %%a, %%b
  ret i8 %%x
}|} op

let arith_tests =
  [ Alcotest.test_case "add nsw overflow is poison" `Quick (fun () ->
        check_ret "127+1" "ret poison" (run (simple "add nsw") [ vi 127; vi 1 ]);
        check_ret "126+1" "ret 127" (run (simple "add nsw") [ vi 126; vi 1 ]));
    Alcotest.test_case "plain add wraps" `Quick (fun () ->
        check_ret "127+1" "ret -128" (run (simple "add") [ vi 127; vi 1 ]));
    Alcotest.test_case "poison is strict through arithmetic" `Quick (fun () ->
        check_ret "poison+1" "ret poison" (run (simple "add") [ poison; vi 1 ]);
        check_ret "and poison" "ret poison" (run (simple "and") [ poison; vi 0 ]));
    Alcotest.test_case "division by zero is UB" `Quick (fun () ->
        check_ret "1/0" "UB: division by zero" (run (simple "udiv") [ vi 1; vi 0 ]));
    Alcotest.test_case "division by poison is UB (default modes)" `Quick (fun () ->
        check_ret "1/poison" "UB: division by poison" (run (simple "udiv") [ vi 1; poison ]));
    Alcotest.test_case "sdiv INT_MIN/-1 is UB" `Quick (fun () ->
        check_ret "min/-1" "UB: sdiv overflow (INT_MIN / -1)"
          (run (simple "sdiv") [ vi (-128); vi (-1) ]));
    Alcotest.test_case "exact violation is poison" `Quick (fun () ->
        check_ret "9 exact/ 2" "ret poison" (run (simple "udiv exact") [ vi 9; vi 2 ]);
        check_ret "8 exact/ 2" "ret 4" (run (simple "udiv exact") [ vi 8; vi 2 ]));
    Alcotest.test_case "oversized shift deferred UB" `Quick (fun () ->
        check_ret "shl by 9 (proposed: poison)" "ret poison" (run (simple "shl") [ vi 1; vi 9 ]);
        (* old modes: undef *)
        check_ret "shl by 9 (old: undef)" "ret undef"
          (run ~mode:Mode.old_unswitch (simple "shl") [ vi 1; vi 9 ]));
    Alcotest.test_case "undef constant means poison in proposed mode" `Quick (fun () ->
        check_ret "undef+1 (proposed)" "ret poison"
          (run {|define i8 @f() {
e:
  %x = add i8 undef, 1
  ret i8 %x
}|} []));
    Alcotest.test_case "undef materializes per use (old)" `Quick (fun () ->
        (* x+x with x=undef can be odd under old semantics: enumerate *)
        let fn = parse {|define i2 @f(i2 %x) {
e:
  %y = add i2 %x, %x
  ret i2 %y
}|} in
        let p = Interp.prepare ~mode:Mode.old_unswitch fn in
        let behs = Interp.Behaviors.enumerate p [ undef ] in
        let values =
          List.filter_map
            (fun b ->
              match b.Interp.Behaviors.b_outcome with
              | Interp.Returned (Some (Value.Scalar (Value.Conc bv))) ->
                Some (Bitvec.to_uint_exn bv)
              | _ -> None)
            behs
        in
        Alcotest.(check bool) "odd result possible" true (List.mem 1 values || List.mem 3 values));
  ]

let branch_select_tests =
  [ Alcotest.test_case "branch on poison: UB vs nondet" `Quick (fun () ->
        let src = {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %t, label %u
t:
  ret i8 1
u:
  ret i8 2
}|} in
        check_ret "proposed" "UB: branch on poison" (run src [ poison ]);
        let p = Interp.prepare ~mode:Mode.old_unswitch (parse src) in
        let behs = Interp.Behaviors.enumerate p [ poison ] in
        Alcotest.(check int) "old-unswitch: both arms" 2 (List.length behs));
    Alcotest.test_case "select semantics per mode" `Quick (fun () ->
        let src = {|define i8 @f(i1 %c, i8 %a, i8 %b) {
e:
  %x = select i1 %c, i8 %a, i8 %b
  ret i8 %x
}|} in
        (* poison condition *)
        check_ret "conditional: poison" "ret poison" (run src [ poison; vi 1; vi 2 ]);
        check_ret "ub-cond: UB" "UB: select on poison condition"
          (run ~mode:Mode.old_gvn src [ poison; vi 1; vi 2 ]);
        (* non-chosen poison arm is ignored under conditional *)
        check_ret "conditional ignores non-chosen" "ret 1" (run src [ vi ~w:1 1; vi 1; poison ]);
        (* ...but poisons the result under arith *)
        check_ret "arith taints" "ret poison"
          (run ~mode:Mode.old_langref src [ vi ~w:1 1; vi 1; poison ]));
    Alcotest.test_case "freeze determinism within a run" `Quick (fun () ->
        let src = {|define i8 @f(i8 %x) {
e:
  %f = freeze i8 %x
  %y = sub i8 %f, %f
  ret i8 %y
}|} in
        (* freeze picks once: f - f = 0 on every path *)
        let fn = parse src in
        let p = Interp.prepare ~mode:Mode.proposed fn in
        let behs = Interp.Behaviors.enumerate ~max_width_bits:8 p [ poison ] in
        List.iter
          (fun b -> check_ret "f-f=0" "ret 0" b.Interp.Behaviors.b_outcome)
          behs);
    Alcotest.test_case "phi forwards poison only on the taken edge" `Quick (fun () ->
        let src = {|define i8 @f(i1 %c, i8 %a) {
e:
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i8 [ %a, %t ], [ 5, %u ]
  ret i8 %x
}|} in
        check_ret "poison via t" "ret poison" (run src [ vi ~w:1 1; poison ]);
        check_ret "constant via u" "ret 5" (run src [ vi ~w:1 0; poison ]));
  ]

let memory_tests =
  [ Alcotest.test_case "store/load roundtrip" `Quick (fun () ->
        let src = {|define i16 @f() {
e:
  %p = call i16* @malloc(i32 8)
  store i16 -12345, i16* %p
  %v = load i16, i16* %p
  ret i16 %v
}|} in
        check_ret "roundtrip" "ret -12345" (run src []));
    Alcotest.test_case "load of uninitialized memory" `Quick (fun () ->
        let src = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 4)
  %v = load i8, i8* %p
  ret i8 %v
}|} in
        check_ret "proposed: poison" "ret poison" (run src []);
        check_ret "old: undef" "ret undef" (run ~mode:Mode.old_unswitch src []));
    Alcotest.test_case "out-of-bounds access is UB" `Quick (fun () ->
        let src = {|define i8 @f() {
e:
  %p = call i8* @malloc(i32 2)
  %q = getelementptr i8, i8* %p, i32 5
  %v = load i8, i8* %q
  ret i8 %v
}|} in
        check_ret "oob" "UB: load from invalid address" (run src []));
    Alcotest.test_case "load/store through poison pointer is UB" `Quick (fun () ->
        let src = {|define i8 @f(i8* %p) {
e:
  %v = load i8, i8* %p
  ret i8 %v
}|} in
        check_ret "poison ptr" "UB: load from poison pointer"
          (run src [ Value.Scalar Value.Poison ]));
    Alcotest.test_case "vector load tracks poison per lane (5.4)" `Quick (fun () ->
        let src = {|define i16 @f() {
e:
  %p = call i16* @malloc(i32 4)
  store i16 7, i16* %p
  %pv = bitcast i16* %p to <2 x i16>*
  %v = load <2 x i16>, <2 x i16>* %pv
  %e = extractelement <2 x i16> %v, i32 0
  ret i16 %e
}|} in
        (* second lane is uninitialized (poison) but lane 0 survives *)
        check_ret "lane isolation" "ret 7" (run src []));
    Alcotest.test_case "integer widened load is contaminated (the 5.4 bug)" `Quick (fun () ->
        let src = {|define i16 @f() {
e:
  %p = call i16* @malloc(i32 4)
  store i16 7, i16* %p
  %pw = bitcast i16* %p to i32*
  %w = load i32, i32* %pw
  %t = trunc i32 %w to i16
  ret i16 %t
}|} in
        check_ret "contaminated" "ret poison" (run src []));
    Alcotest.test_case "gep inbounds overflow is poison" `Quick (fun () ->
        let src = {|define i8* @f(i8* %p) {
e:
  %q = getelementptr inbounds i8, i8* %p, i32 2147483647
  %r = getelementptr inbounds i8, i8* %q, i32 2147483647
  ret i8* %r
}|} in
        let fn = parse src in
        let mem = Memory.create () in
        let base = Option.get (Memory.alloc mem ~size:4) in
        let r = Interp.run ~mem fn [ Value.Scalar (Value.Conc base) ] in
        check_ret "poison gep" "ret poison" r.Interp.outcome);
  ]

let ty_updown_tests =
  [ Alcotest.test_case "ty_down/ty_up roundtrip on concrete" `Quick (fun () ->
        let v = Value.Vector [| Value.Conc (Bitvec.of_int ~width:16 513); Value.Conc (Bitvec.of_int ~width:16 77) |] in
        let ty = Types.Vec (2, Types.Int 16) in
        let v' = Value.ty_up ~mode:Mode.proposed ty (Value.ty_down ty v) in
        Alcotest.(check bool) "roundtrip" true (Value.equal v v'));
    Alcotest.test_case "bitcast spreads lane poison (Fig 5)" `Quick (fun () ->
        let v = Value.Vector [| Value.Poison; Value.Conc (Bitvec.of_int ~width:16 3) |] in
        let r =
          Value.bitcast ~mode:Mode.proposed ~from:(Types.Vec (2, Types.Int 16))
            ~to_:(Types.Int 32) v
        in
        Alcotest.(check bool) "whole word poison" true (Value.is_poison r));
    Alcotest.test_case "bitcast keeps clean lanes" `Quick (fun () ->
        let v = Value.Scalar (Value.Conc (Bitvec.of_int ~width:32 0x00070003)) in
        match Value.bitcast ~mode:Mode.proposed ~from:(Types.Int 32) ~to_:(Types.Vec (2, Types.Int 16)) v with
        | Value.Vector [| Value.Conc a; Value.Conc b |] ->
          Alcotest.(check int) "lane0" 3 (Bitvec.to_uint_exn a);
          Alcotest.(check int) "lane1" 7 (Bitvec.to_uint_exn b)
        | _ -> Alcotest.fail "bad shape");
    Alcotest.test_case "covers order" `Quick (fun () ->
        let conc = Value.Scalar (Value.Conc (Bitvec.of_int ~width:8 3)) in
        Alcotest.(check bool) "poison covers conc" true (Value.covers ~src:poison ~tgt:conc);
        Alcotest.(check bool) "undef covers conc" true (Value.covers ~src:undef ~tgt:conc);
        Alcotest.(check bool) "undef !covers poison" false (Value.covers ~src:undef ~tgt:poison);
        Alcotest.(check bool) "conc !covers undef" false (Value.covers ~src:conc ~tgt:undef);
        Alcotest.(check bool) "conc covers self" true (Value.covers ~src:conc ~tgt:conc));
  ]

(* ------------------------------------------------------------------ *)
(* The prepared form: what resolving a function once must not change.  *)
(* The pinned values were computed by the interpreter that walked      *)
(* [Func.t] directly.                                                   *)
(* ------------------------------------------------------------------ *)

let raises_invalid name expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument %S" name expected
  | exception Invalid_argument m -> Alcotest.(check string) name expected m

let bit b = vi ~w:1 b

let prepared_tests =
  [ Alcotest.test_case "a missing phi edge raises only on the path taking it" `Quick (fun () ->
        let src = {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i8 [ 7, %t ]
  ret i8 %x
}|} in
        check_ret "edge from t" "ret 7" (run src [ bit 1 ]);
        raises_invalid "edge from u" "Interp: phi %x missing edge from %u" (fun () ->
            run src [ bit 0 ]));
    Alcotest.test_case "a branch to a missing label raises only when taken" `Quick (fun () ->
        let src = {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %t, label %nowhere
t:
  ret i8 1
}|} in
        check_ret "taken arm exists" "ret 1" (run src [ bit 1 ]);
        raises_invalid "missing arm" "Func.find_block: no block %nowhere in @f" (fun () ->
            run src [ bit 0 ]));
    Alcotest.test_case "an unbound register raises invalid_arg" `Quick (fun () ->
        (* %v is defined on one path only; %w nowhere *)
        let src = {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %a, label %b
a:
  %v = add i8 1, 2
  br label %m
b:
  br label %m
m:
  ret i8 %v
}|} in
        check_ret "defined on the path" "ret 3" (run src [ bit 1 ]);
        raises_invalid "undefined on the path" "Interp: unbound register %v" (fun () ->
            run src [ bit 0 ]);
        raises_invalid "defined nowhere" "Interp: unbound register %w" (fun () ->
            run {|define i8 @f() {
e:
  ret i8 %w
}|} []));
    Alcotest.test_case "timeout and steps do not move on a fuel-bounded loop" `Quick (fun () ->
        (* [steps] is the fuel left: each trip spends its two phis
           together, then one per instruction and one for the branch *)
        let loop = {|define i8 @f(i8 %n) {
e:
  br label %l
l:
  %i = phi i8 [ 0, %e ], [ %j, %l ]
  %k = phi i8 [ 0, %e ], [ %i, %l ]
  %j = add i8 %i, 1
  %d = icmp eq i8 %j, %n
  br i1 %d, label %x, label %l
x:
  ret i8 %j
}|} in
        let fn = parse loop in
        let expect name fuel n outcome steps =
          let r = Interp.run ~fuel fn [ vi n ] in
          check_ret name outcome r.Interp.outcome;
          Alcotest.(check int) (name ^ ": steps") steps r.Interp.steps
        in
        expect "never matches" 100 0 "timeout" (-1);
        expect "five trips" 100 5 "ret 5" 73;
        expect "exactly enough fuel" 27 5 "ret 5" 0;
        expect "one short" 26 5 "timeout" (-1);
        expect "out of fuel at a phi pair" 21 5 "timeout" (-2));
    Alcotest.test_case "enumeration counts its runs as interp.runs" `Quick (fun () ->
        (* two uses of an undef i2, each an independent 4-way choice *)
        let fn = parse {|define i2 @f(i2 %x) {
e:
  %y = add i2 %x, %x
  ret i2 %y
}|} in
        Ub_obs.Obs.reset ();
        let p = Interp.prepare ~mode:Mode.old_unswitch fn in
        let behs = Interp.Behaviors.enumerate p [ undef ] in
        Alcotest.(check int) "distinct results" 4 (List.length behs);
        Alcotest.(check int) "runs" 16 (Ub_obs.Obs.counter_value "interp.runs");
        match Ub_obs.Json.member "derived" (Ub_obs.Obs.report ()) with
        | Some d ->
          Alcotest.(check (option int)) "derived interp_runs" (Some 16)
            (Option.bind (Ub_obs.Json.member "interp_runs" d) Ub_obs.Json.to_int)
        | None -> Alcotest.fail "report has no derived block");
    Alcotest.test_case "calls into the module and out of it" `Quick (fun () ->
        let m =
          Parser.parse_module
            {|define i8 @g(i8 %x) {
e:
  %y = mul i8 %x, 2
  %z = add i8 %y, 1
  ret i8 %z
}

define i8 @fact(i8 %n) {
e:
  %z = icmp eq i8 %n, 0
  br i1 %z, label %b, label %r
b:
  ret i8 1
r:
  %m = sub i8 %n, 1
  %f = call i8 @fact(i8 %m)
  %p = mul i8 %n, %f
  ret i8 %p
}

define i8 @f(i8 %a) {
e:
  %u = call i8 @g(i8 %a)
  %v = call i8 @fact(i8 4)
  %w = call i8 @ext(i8 %u)
  %s = add i8 %u, %v
  %t = add i8 %s, %w
  ret i8 %t
}|}
        in
        let f = Func.find_func_exn m "f" in
        let r = Interp.run ~module_:m f [ vi 3 ] in
        check_ret "g(3) + 4! + ext" "ret 31" r.Interp.outcome;
        Alcotest.(check (list string)) "only the external call is an event" [ "ext(7)" ]
          (List.map
             (fun (Interp.Call_event (n, vs)) ->
               Printf.sprintf "%s(%s)" n (String.concat "," (List.map Value.to_string vs)))
             r.Interp.events);
        Alcotest.(check int) "steps left" 199_964 r.Interp.steps;
        (* without the module every call is external and returns 0 *)
        check_ret "no module" "ret 0" (Interp.run f [ vi 3 ]).Interp.outcome);
  ]

(* Ground truth: the behaviour sets of 300 generated hunt-shaped
   functions, under every mode and in every memory phase, on every
   seventh tuple of their input space, and those of their compiled MIR.
   Each set is printed (outcome, events, memory) and folded into one
   digest per side.  The pinned digests were computed by the
   interpreters that walked [Func.t] and rebuilt MIR's label table on
   every run, so any change to what enumeration returns shows here. *)
let ground_truth_digests () =
  let shapes =
    let d = Ub_fuzz.Gen.default_hunt in
    [ d; { d with h_cfg = true }; { d with h_mem = true }; { d with h_undef = true };
      { d with h_cfg = true; h_undef = true; h_mem = true }; { d with h_backend = true } ]
  in
  let fns =
    let rng = Prng.create ~seed:2017 in
    List.init 300 (fun i ->
        Ub_fuzz.Gen.hunt_func rng ~name:(Printf.sprintf "g%d" i)
          (List.nth shapes (i mod List.length shapes)))
  in
  let per_input ~mode fn f =
    match Ub_refine.Enum_check.input_space ~mode ~max_inputs:5_000 fn with
    | None -> "no inputs\n"
    | Some tuples ->
      let b = Buffer.create 4096 in
      List.iteri
        (fun i args ->
          if i mod 7 = 0 then
            List.iter
              (fun phase ->
                Buffer.add_string b (f args phase);
                Buffer.add_char b '\n')
              (Ub_refine.Enum_check.phases_for ~src:fn ~tgt:fn))
        tuples;
      Buffer.contents b
  in
  let digest sets =
    let all = Buffer.create 4096 in
    List.iter (fun fn -> Buffer.add_string all (Digest.string (sets fn))) fns;
    Digest.to_hex (Digest.string (Buffer.contents all))
  in
  let show_ir (b : Interp.Behaviors.behavior) =
    let ev (Interp.Call_event (n, vs)) =
      n ^ "(" ^ String.concat "," (List.map Value.to_string vs) ^ ")"
    in
    String.concat " | "
      [ Interp.outcome_to_string b.b_outcome; String.concat ";" (List.map ev b.b_events); b.b_mem ]
  in
  let ir_sets fn =
    String.concat ""
      (List.map
         (fun mode ->
           let p = Interp.prepare ~mode fn in
           per_input ~mode fn (fun args phase ->
               match Interp.Behaviors.enumerate ~fuel:5_000 ~max_runs:300 ~phase p args with
               | bs -> String.concat "\n" (List.map show_ir bs)
               | exception Oracle.Exhausted -> "exhausted"))
         Mode.all)
  in
  let show_mir (b : Ub_backend.Mir_sem.behavior) =
    Ub_backend.Mir_sem.outcome_to_string b.b_outcome ^ " | " ^ b.b_mem
  in
  let mir_sets fn =
    match Ub_backend.Compile.compile_func fn with
    | exception e -> "no compile: " ^ Printexc.to_string e
    | c ->
      let p =
        Ub_backend.Mir_sem.prepare ~form:(Ub_backend.Mir_sem.Physical c.arg_locs) c.mir
      in
      per_input ~mode:Mode.proposed fn (fun args phase ->
          match Ub_backend.Mir_sem.enumerate ~fuel:100_000 ~max_runs:300 ~phase p args with
          | bs -> String.concat "\n" (List.map show_mir bs)
          | exception Oracle.Exhausted -> "exhausted"
          | exception Ub_backend.Mir_sem.Unsupported r -> "unsupported: " ^ r)
  in
  (digest ir_sets, digest mir_sets)

let ground_truth =
  Alcotest.test_case "behaviour sets of 300 generated functions" `Quick (fun () ->
      let ir, mir = ground_truth_digests () in
      Alcotest.(check string) "IR behaviour sets" "d4aa555ce63cbb8f5676b2ba25681f42" ir;
      Alcotest.(check string) "MIR behaviour sets" "08b2ccfd0a97a80980a961eee03a82e5" mir)

(* interpreter determinism given an oracle *)
let determinism =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"runs are deterministic given a seed" ~count:50
       QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 255))
       (fun (seed, a) ->
         let fns = Ub_fuzz.Gen.random_corpus ~seed ~size:1 in
         let fn = List.hd fns in
         let args = [ vi ~w:32 a; vi ~w:32 (a * 3); vi ~w:32 (a + 17) ] in
         let r1 = Interp.run ~oracle:(Ub_sem.Oracle.of_prng (Prng.create ~seed:1)) fn args in
         let r2 = Interp.run ~oracle:(Ub_sem.Oracle.of_prng (Prng.create ~seed:1)) fn args in
         r1.Interp.outcome = r2.Interp.outcome))

let () =
  Alcotest.run "semantics"
    [ ("arithmetic", arith_tests);
      ("branch-select", branch_select_tests);
      ("memory", memory_tests);
      ("ty-up-down", ty_updown_tests);
      ("prepared", prepared_tests @ [ ground_truth ]);
      ("properties", [ determinism ]);
    ]
