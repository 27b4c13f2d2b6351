(* IR structure: parser/printer round-trips, the validator's acceptance
   of good IR and rejection of each class of bad IR, and Func
   utilities. *)

open Ub_ir

let parse = Parser.parse_func_string

let clean_sample =
  {|define i32 @loop(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret i32 %i
}|}

let roundtrip_once src =
  let fn = parse src in
  let printed = Printer.func_to_string fn in
  let fn2 = parse printed in
  Alcotest.(check bool) "roundtrip fixpoint" true (fn = fn2)

let unit_tests =
  [ Alcotest.test_case "parse+print roundtrip (loop)" `Quick (fun () -> roundtrip_once clean_sample);
    Alcotest.test_case "clean sample validates" `Quick (fun () ->
        Alcotest.(check (list string)) "no errors" [] (Validate.check_func (parse clean_sample)));
    Alcotest.test_case "rich instruction mix parses" `Quick (fun () ->
        let fn =
          parse
            {|define i32 @g(i32 %a, i32* %p) {
entry:
  %v = load <2 x i16>, <2 x i16>* null
  %e = extractelement <2 x i16> %v, i32 0
  %z = zext i16 %e to i32
  %fr = freeze <2 x i16> %v
  store <2 x i16> %fr, <2 x i16>* null
  ret i32 %z
}|}
        in
        roundtrip_once (Printer.func_to_string fn));
    Alcotest.test_case "undef and poison constants" `Quick (fun () ->
        let fn =
          parse
            {|define i8 @h() {
e:
  %x = add i8 undef, poison
  ret i8 %x
}|}
        in
        match (List.hd fn.Func.blocks).Func.insns with
        | [ { Instr.ins = Instr.Binop (_, _, _, a, b); _ } ] ->
          Alcotest.(check bool) "undef" true (a = Instr.Const (Constant.Undef (Types.Int 8)));
          Alcotest.(check bool) "poison" true (b = Instr.Const (Constant.Poison (Types.Int 8)))
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        let fn = parse "; header\ndefine i8 @c() { ; trailing\ne:\n ret i8 1 ; done\n}" in
        Alcotest.(check string) "name" "c" fn.Func.name);
    Alcotest.test_case "parse error is reported" `Quick (fun () ->
        match parse "define i8 @bad() { e: ret i9000 1 }" with
        | exception Parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "i64 extreme constants round-trip" `Quick (fun () ->
        (* ISSUE 4: i64 min_int prints as -9223372036854775808, which the
           lexer must read back as a single negative literal (Int64.neg
           of 9223372036854775808 would overflow if parsed unsigned). *)
        let src =
          {|define i64 @extremes(i64 %a) {
e:
  %x = add i64 %a, -9223372036854775808
  %y = add i64 %x, 9223372036854775807
  %z = add i64 %y, -1
  ret i64 %z
}|}
        in
        roundtrip_once src;
        let fn = parse src in
        (match (List.hd fn.Func.blocks).Func.insns with
        | { Instr.ins = Instr.Binop (_, _, _, _, Instr.Const (Constant.Int bv)); _ } :: _ ->
          Alcotest.(check bool) "parses to min_signed 64" true
            (Ub_support.Bitvec.is_min_signed bv)
        | _ -> Alcotest.fail "unexpected shape");
        (* printer emits the signed spelling and parsing it is stable *)
        let printed = Printer.func_to_string fn in
        Alcotest.(check bool) "printed form contains min_int literal" true
          (let re = "-9223372036854775808" in
           let rec find i =
             i + String.length re <= String.length printed
             && (String.sub printed i (String.length re) = re || find (i + 1))
           in
           find 0));
    Alcotest.test_case "types" `Quick (fun () ->
        Alcotest.(check int) "bitwidth vec" 32 (Types.bitwidth (Types.Vec (2, Types.Int 16)));
        Alcotest.(check int) "store size i1" 1 (Types.store_size (Types.Int 1));
        Alcotest.(check int) "store size ptr" 4 (Types.store_size (Types.Ptr (Types.Int 8)));
        Alcotest.(check bool) "bitcast ok" true
          (Types.bitcast_compatible (Types.Int 32) (Types.Vec (2, Types.Int 16)));
        Alcotest.(check string) "pp" "<4 x i8>*" (Types.to_string (Types.Ptr (Types.Vec (4, Types.Int 8)))));
  ]

(* validator rejection tests: each produces at least one error *)
let rejects name src =
  Alcotest.test_case name `Quick (fun () ->
      match parse src with
      | exception Parser.Parse_error _ -> () (* also acceptable *)
      | fn ->
        Alcotest.(check bool)
          (name ^ " rejected")
          true
          (Validate.check_func fn <> []))

let validator_tests =
  [ rejects "use before def"
      {|define i8 @f() {
e:
  %x = add i8 %y, 1
  %y = add i8 1, 1
  ret i8 %x
}|};
    rejects "unknown register"
      {|define i8 @f() {
e:
  %x = add i8 %nope, 1
  ret i8 %x
}|};
    rejects "double definition"
      {|define i8 @f(i8 %a) {
e:
  %x = add i8 %a, 1
  %x = add i8 %a, 2
  ret i8 %x
}|};
    rejects "type mismatch"
      {|define i8 @f(i16 %a) {
e:
  %x = add i8 %a, 1
  ret i8 %x
}|};
    rejects "branch to unknown block"
      {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %t, label %nowhere
t:
  ret i8 1
}|};
    rejects "phi after non-phi"
      {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %t, label %t
t:
  %x = add i8 1, 1
  %p = phi i8 [ 1, %e ]
  ret i8 %p
}|};
    rejects "phi missing incoming"
      {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %m, label %u
u:
  br label %m
m:
  %p = phi i8 [ 1, %e ]
  ret i8 %p
}|};
    rejects "ret type mismatch"
      {|define i8 @f() {
e:
  ret i16 1
}|};
    rejects "def does not dominate use"
      {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %a, label %b
a:
  %x = add i8 1, 1
  br label %m
b:
  br label %m
m:
  %y = add i8 %x, 1
  ret i8 %y
}|};
    rejects "nsw on udiv"
      {|define i8 @f(i8 %a) {
e:
  %x = udiv nsw i8 %a, 2
  ret i8 %x
}|};
    rejects "zext must widen"
      {|define i8 @f(i16 %a) {
e:
  %x = zext i16 %a to i8
  ret i8 %x
}|};
    rejects "branch into entry"
      {|define i8 @f(i1 %c) {
entry:
  br label %entry
}|};
  ]

(* Validator golden messages: one ill-formed function per error kind,
   built directly (most of these the parser would refuse), and each
   [check_func] output pinned byte for byte.  The context part of a
   message is the offending instruction as the printer prints it. *)
module Golden = struct
  open Instr

  let i1 = Types.Int 1 and i8 = Types.Int 8 and i16 = Types.Int 16
  let p8 = Types.Ptr i8
  let v2 = Types.Vec (2, i8)
  let c8 n = Const (Constant.of_int ~width:8 n)
  let c32 n = Const (Constant.of_int ~width:32 n)
  let v x = Var x
  let ins ?def i = { def; ins = i }
  let blk label insns term = { Func.label; insns; term }
  let fn ?(args = []) ?(ret = Some i8) blocks = { Func.name = "f"; args; ret_ty = ret; blocks }
  let ret8 x = Ret (i8, x)
  let add ?(ty = i8) d a b = ins ~def:d (Binop (Add, no_attrs, ty, a, b))

  let cases : (string * Func.t) list =
    [ ("no blocks", fn []);
      ("duplicate block label", fn [ blk "e" [] (Br "a"); blk "a" [] (ret8 (c8 0)); blk "a" [] (ret8 (c8 1)) ]);
      ("multiple definitions",
       fn ~args:[ ("a", i8) ] [ blk "e" [ add "x" (v "a") (c8 1); add "x" (v "a") (c8 2) ] (ret8 (v "x")) ]);
      ("undefined register", fn [ blk "e" [ add "x" (v "nope") (c8 1) ] (ret8 (v "x")) ]);
      ("undefined register in terminator", fn [ blk "e" [] (ret8 (v "nope")) ]);
      ("operand type mismatch", fn ~args:[ ("a", i16) ] [ blk "e" [ add "x" (v "a") (c8 1) ] (ret8 (v "x")) ]);
      ("phi after non-phi",
       fn ~args:[ ("c", i1) ]
         [ blk "e" [] (Cond_br (v "c", "t", "t"));
           blk "t" [ add "x" (c8 1) (c8 1); ins ~def:"p" (Phi (i8, [ (c8 1, "e") ])) ] (ret8 (v "p")) ]);
      ("void instruction has a name",
       fn ~args:[ ("p", p8) ] [ blk "e" [ ins ~def:"s" (Store (i8, c8 1, v "p")) ] (ret8 (c8 0)) ]);
      ("value-producing instruction unnamed", fn [ blk "e" [ ins (Binop (Add, no_attrs, i8, c8 1, c8 2)) ] (ret8 (c8 0)) ]);
      ("bad attributes",
       fn ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Binop (UDiv, nsw_only, i8, v "a", c8 2)) ] (ret8 (v "x")) ]);
      ("binop on non-integer",
       fn ~ret:None ~args:[ ("p", p8) ] [ blk "e" [ add ~ty:p8 "x" (v "p") (v "p") ] Ret_void ]);
      ("zext must widen", fn ~args:[ ("a", i16) ] [ blk "e" [ ins ~def:"x" (Conv (Zext, i16, v "a", i8)) ] (ret8 (v "x")) ]);
      ("sext must widen", fn ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Conv (Sext, i8, v "a", i8)) ] (ret8 (v "x")) ]);
      ("trunc must narrow", fn ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Conv (Trunc, i8, v "a", i16)) ] (ret8 (c8 0)) ]);
      ("ptrtoint from/to wrong types",
       fn ~ret:None ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Conv (Ptrtoint, i8, v "a", p8)) ] Ret_void ]);
      ("inttoptr from/to wrong types",
       fn ~ret:None ~args:[ ("p", p8) ] [ blk "e" [ ins ~def:"x" (Conv (Inttoptr, p8, v "p", i16)) ] Ret_void ]);
      ("vector/scalar conversion mismatch",
       fn ~ret:None ~args:[ ("a", v2) ] [ blk "e" [ ins ~def:"x" (Conv (Zext, v2, v "a", i16)) ] Ret_void ]);
      ("bitcast width mismatch",
       fn ~ret:None ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Bitcast (i8, v "a", i16)) ] Ret_void ]);
      ("phi missing incoming",
       fn ~args:[ ("c", i1) ]
         [ blk "e" [] (Cond_br (v "c", "m", "u")); blk "u" [] (Br "m");
           blk "m" [ ins ~def:"p" (Phi (i8, [ (c8 1, "e") ])) ] (ret8 (v "p")) ]);
      ("phi incoming for non-predecessor",
       fn [ blk "e" [] (Br "m"); blk "m" [ ins ~def:"p" (Phi (i8, [ (c8 1, "e"); (c8 2, "z") ])) ] (ret8 (v "p")) ]);
      ("gep index must be an integer",
       fn ~ret:None ~args:[ ("p", p8); ("q", p8) ]
         [ blk "e" [ ins ~def:"g" (Gep { inbounds = false; pointee = i8; base = v "p"; indices = [ (p8, v "q") ] }) ] Ret_void ]);
      ("extractelement on non-vector",
       fn ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Extractelement (i8, v "a", c32 0)) ] (ret8 (c8 0)) ]);
      ("insertelement on non-vector",
       fn ~args:[ ("a", i8) ] [ blk "e" [ ins ~def:"x" (Insertelement (i8, v "a", c8 1, c32 0)) ] (ret8 (c8 0)) ]);
      ("ret type mismatch", fn [ blk "e" [] (Ret (i16, Const (Constant.of_int ~width:16 1))) ]);
      ("ret with value in void function", fn ~ret:None [ blk "e" [] (ret8 (c8 1)) ]);
      ("ret void in non-void function", fn [ blk "e" [] Ret_void ]);
      ("branch to unknown block",
       fn ~args:[ ("c", i1) ] [ blk "e" [] (Cond_br (v "c", "t", "nowhere")); blk "t" [] (Br "gone") ]);
      ("cond_br on non-i1", fn ~args:[ ("c", i8) ] [ blk "e" [] (Cond_br (v "c", "t", "t")); blk "t" [] (ret8 (c8 0)) ]);
      ("branch into entry", fn [ blk "entry" [] (Br "entry") ]);
      ("use before def",
       fn [ blk "e" [ add "x" (v "y") (c8 1); add "y" (c8 1) (c8 1) ] (ret8 (v "x")) ]);
      ("def does not dominate use",
       fn ~args:[ ("c", i1) ]
         [ blk "e" [] (Cond_br (v "c", "a", "b")); blk "a" [ add "x" (c8 1) (c8 1) ] (Br "m");
           blk "b" [] (Br "m"); blk "m" [ add "y" (v "x") (c8 1) ] (ret8 (v "y")) ]);
      ("def does not dominate terminator use",
       fn ~args:[ ("c", i1) ]
         [ blk "e" [] (Cond_br (v "c", "a", "m")); blk "a" [ add "x" (c8 1) (c8 1) ] (Br "m");
           blk "m" [] (ret8 (v "x")) ]);
      ("phi operand does not dominate predecessor",
       fn ~args:[ ("c", i1) ]
         [ blk "e" [] (Cond_br (v "c", "a", "b")); blk "a" [ add "x" (c8 1) (c8 1) ] (Br "b");
           blk "b" [ ins ~def:"p" (Phi (i8, [ (c8 0, "e"); (v "x", "a") ])) ] (Br "m");
           blk "m" [ ins ~def:"q" (Phi (i8, [ (v "x", "b") ])) ] (ret8 (v "q")) ]);
      ("select on mismatched condition",
       fn ~args:[ ("c", i8) ] [ blk "e" [ ins ~def:"x" (Select (v "c", i8, c8 1, c8 2)) ] (ret8 (v "x")) ]);
    ]

  let module_case = { Func.funcs = [ fn [ blk "e" [] (ret8 (c8 0)) ]; fn [ blk "e" [] Ret_void ] ] }

  let validator_golden_messages =
    [ ("no blocks",
       [ "@f: function has no blocks" ]);
      ("duplicate block label",
       [ "@f: duplicate block label %a" ]);
      ("multiple definitions",
       [ "@f: multiple definitions of %x" ]);
      ("undefined register",
       [ "@f: block %e: %x = add i8 %nope, 1: use of undefined register %nope" ]);
      ("undefined register in terminator",
       [ "@f: block %e: use of undefined register %nope" ]);
      ("operand type mismatch",
       [ "@f: block %e: %x = add i8 %a, 1: operand has type i16 but i8 expected" ]);
      ("phi after non-phi",
       [ "@f: t: phi after non-phi instruction" ]);
      ("void instruction has a name",
       [ "@f: block %e: %s = store i8 1, i8* %p: void instruction has a name" ]);
      ("value-producing instruction unnamed",
       [ "@f: block %e: add i8 1, 2: value-producing instruction unnamed" ]);
      ("bad attributes",
       [ "@f: block %e: %x = udiv nsw i8 %a, 2: bad attributes" ]);
      ("binop on non-integer",
       [ "@f: block %e: %x = add i8* %p, %p: binop on non-integer type" ]);
      ("zext must widen",
       [ "@f: block %e: %x = zext i16 %a to i8: zext must widen" ]);
      ("sext must widen",
       [ "@f: block %e: %x = sext i8 %a to i8: sext must widen" ]);
      ("trunc must narrow",
       [ "@f: block %e: %x = trunc i8 %a to i16: trunc must narrow" ]);
      ("ptrtoint from/to wrong types",
       [ "@f: block %e: %x = ptrtoint i8 %a to i8*: ptrtoint from non-pointer type";
         "@f: block %e: %x = ptrtoint i8 %a to i8*: ptrtoint to non-integer type" ]);
      ("inttoptr from/to wrong types",
       [ "@f: block %e: %x = inttoptr i8* %p to i16: inttoptr from non-integer type";
         "@f: block %e: %x = inttoptr i8* %p to i16: inttoptr to non-pointer type" ]);
      ("vector/scalar conversion mismatch",
       [ "@f: block %e: %x = zext <2 x i8> %a to i16: zext must widen";
         "@f: block %e: %x = zext <2 x i8> %a to i16: vector/scalar conversion mismatch" ]);
      ("bitcast width mismatch",
       [ "@f: block %e: %x = bitcast i8 %a to i16: bitcast between types of different widths" ]);
      ("phi missing incoming",
       [ "@f: block %m: %p = phi i8 [ 1, %e ]: phi missing incoming for predecessor %u" ]);
      ("phi incoming for non-predecessor",
       [ "@f: block %m: %p = phi i8 [ 1, %e ], [ 2, %z ]: phi has incoming for non-predecessor %z" ]);
      ("gep index must be an integer",
       [ "@f: block %e: %g = getelementptr i8, i8* %p, i8* %q: gep index must be an integer" ]);
      ("extractelement on non-vector",
       [ "@f: block %e: %x = extractelement i8 %a, i32 0: extractelement on non-vector" ]);
      ("insertelement on non-vector",
       [ "@f: block %e: %x = insertelement i8 %a, i8 1, i32 0: insertelement on non-vector" ]);
      ("ret type mismatch",
       [ "@f: block %e: ret type i16 but function returns i8" ]);
      ("ret with value in void function",
       [ "@f: block %e: ret with value in void function" ]);
      ("ret void in non-void function",
       [ "@f: block %e: ret void in non-void function" ]);
      ("branch to unknown block",
       [ "@f: block %e: branch to unknown %nowhere";
         "@f: block %t: branch to unknown %gone" ]);
      ("cond_br on non-i1",
       [ "@f: block %e: operand has type i8 but i1 expected" ]);
      ("branch into entry",
       [ "@f: entry block %entry must not have predecessors" ]);
      ("use before def",
       [ "@f: %x = add i8 %y, 1: %y used before its definition" ]);
      ("def does not dominate use",
       [ "@f: %y = add i8 %x, 1: definition of %x does not dominate this use" ]);
      ("def does not dominate terminator use",
       [ "@f: terminator: definition of %x does not dominate this use" ]);
      ("phi operand does not dominate predecessor",
       [ "@f: %q = phi i8 [ %x, %b ]: phi operand %x does not dominate predecessor %b" ]);
      ("select on mismatched condition",
       [ "@f: block %e: %x = select i1 %c, i8 1, i8 2: operand has type i8 but i1 expected" ])
    ]
end

let validator_golden_tests =
  List.map
    (fun (name, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check (list string))
            name
            (List.assoc name Golden.validator_golden_messages)
            (Validate.check_func f)))
    Golden.cases
  @ [ Alcotest.test_case "module: duplicate function" `Quick (fun () ->
          Alcotest.(check (list string))
            "module"
            [ "duplicate function @f"; "@f: block %e: ret void in non-void function" ]
            (Validate.check_module Golden.module_case))
    ]

(* [map_operands] applies its function in [operands] order: the
   shrinker numbers operands with a counter inside it. *)
let map_operands_order =
  let open Instr in
  let build (k, n) =
    let o i = Var (Printf.sprintf "o%d" i) in
    let i8 = Types.Int 8 and v2 = Types.Vec (2, Types.Int 8) in
    let list f = List.init n f in
    match k with
    | 0 -> Binop (Sub, no_attrs, i8, o 0, o 1)
    | 1 -> Icmp (Ult, i8, o 0, o 1)
    | 2 -> Select (o 0, i8, o 1, o 2)
    | 3 -> Conv (Zext, i8, o 0, Types.Int 16)
    | 4 -> Bitcast (v2, o 0, Types.Int 16)
    | 5 -> Freeze (i8, o 0)
    | 6 -> Phi (i8, list (fun i -> (o i, Printf.sprintf "l%d" i)))
    | 7 -> Gep { inbounds = false; pointee = i8; base = o 0; indices = list (fun i -> (i8, o (i + 1))) }
    | 8 -> Load (i8, o 0)
    | 9 -> Store (i8, o 0, o 1)
    | 10 -> Call (Some i8, "g", list (fun i -> (i8, o i)))
    | 11 -> Extractelement (v2, o 0, o 1)
    | _ -> Insertelement (v2, o 0, o 1, o 2)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"map_operands visits operands in operands order" ~count:300
       ~print:(fun kn -> Printer.insn_to_string { def = None; ins = build kn })
       QCheck2.Gen.(pair (int_range 0 12) (int_range 0 4))
       (fun kn ->
         let ins = build kn in
         let visited = ref [] in
         let mapped =
           map_operands
             (fun o ->
               visited := o :: !visited;
               Const (Constant.of_int ~width:8 (List.length !visited)))
             ins
         in
         List.rev !visited = operands ins
         && operands mapped
            = List.mapi (fun i _ -> Const (Constant.of_int ~width:8 (i + 1))) (operands ins)))

(* Func utilities *)
let func_tests =
  [ Alcotest.test_case "predecessors" `Quick (fun () ->
        let fn = parse clean_sample in
        Alcotest.(check (list string)) "head preds" [ "entry"; "body" ] (Func.preds_of fn "head"));
    Alcotest.test_case "use_count / replace_uses" `Quick (fun () ->
        let fn = parse clean_sample in
        Alcotest.(check int) "%i used thrice" 3 (Func.use_count fn "i");
        let fn' = Func.replace_uses fn ~v:"i" ~by:(Instr.Const (Constant.of_int ~width:32 7)) in
        Alcotest.(check int) "%i unused now" 0 (Func.use_count fn' "i"));
    Alcotest.test_case "num_insns and freeze count" `Quick (fun () ->
        let fn =
          parse {|define i8 @f(i8 %x) {
e:
  %a = freeze i8 %x
  %b = add i8 %a, 1
  ret i8 %b
}|}
        in
        Alcotest.(check int) "3 insns (incl. term)" 3 (Func.num_insns fn);
        Alcotest.(check int) "1 freeze" 1 (Func.num_freeze fn));
    Alcotest.test_case "fresh_var avoids collisions" `Quick (fun () ->
        let fn = parse clean_sample in
        let v = Func.fresh_var fn "i" in
        Alcotest.(check bool) "fresh" true (Func.def_ty fn v = None));
  ]

(* property: printer/parser roundtrip over the random corpus *)
let corpus_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random corpus roundtrips and validates" ~count:60
       QCheck2.Gen.(int_range 0 10_000)
       (fun seed ->
         let fns = Ub_fuzz.Gen.random_corpus ~seed ~size:3 in
         List.for_all
           (fun fn ->
             Validate.check_func fn = []
             && Parser.parse_func_string (Printer.func_to_string fn) = fn)
           fns))

(* the same property at scale, deterministic: for ~1000 fuzz-generated
   functions (loopy i32 corpus + exhaustive small i2 space), parsing the
   printed text must succeed, revalidate cleanly, and reprint to the
   exact same string — i.e. print is a fixpoint of parse . print *)
let bulk_roundtrip =
  Alcotest.test_case "1000+ fuzzed functions roundtrip exactly" `Quick (fun () ->
      let corpus = ref (Ub_fuzz.Gen.random_corpus ~seed:424242 ~size:700) in
      let params = { Ub_fuzz.Gen.default_params with Ub_fuzz.Gen.n_insns = 2 } in
      let _ =
        Ub_fuzz.Gen.enumerate ~limit:300 params (fun fn -> corpus := fn :: !corpus)
      in
      let n = ref 0 in
      List.iter
        (fun fn ->
          incr n;
          let printed = Printer.func_to_string fn in
          let reparsed =
            try Parser.parse_func_string printed
            with Parser.Parse_error e ->
              Alcotest.failf "printed IR fails to parse (%s):\n%s" e printed
          in
          (match Validate.check_func reparsed with
          | [] -> ()
          | errs ->
            Alcotest.failf "reparsed IR fails validation (%s):\n%s"
              (String.concat "; " errs) printed);
          let reprinted = Printer.func_to_string reparsed in
          if reprinted <> printed then
            Alcotest.failf "print is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s"
              printed reprinted)
        !corpus;
      Alcotest.(check bool)
        (Printf.sprintf "checked %d functions (>= 1000)" !n)
        true (!n >= 1000))

let () =
  Alcotest.run "ir"
    [ ("unit", unit_tests);
      ("validator-rejects", validator_tests);
      ("validator-golden", validator_golden_tests);
      ("func-utils", func_tests);
      ("properties", [ corpus_roundtrip; bulk_roundtrip; map_operands_order ]);
    ]
