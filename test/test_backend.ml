(* Backend: instruction selection, register allocation, emission, cost
   model — including the freeze-is-a-copy lowering and the LEA/r13
   machinery behind the Queens anomaly. *)

open Ub_ir
open Ub_backend

let parse = Parser.parse_func_string

let compile src = Compile.compile_func (parse src)

let all_insts (mf : Mir.func) = List.concat_map (fun b -> b.Mir.insts) mf.Mir.blocks

let no_vregs (mf : Mir.func) =
  List.for_all
    (fun i ->
      List.for_all
        (function Mir.Vreg _ -> false | Mir.Preg _ -> true)
        (Mir.uses i @ Mir.defs i))
    (all_insts mf)

let isel_tests =
  [ Alcotest.test_case "freeze lowers to a register copy" `Quick (fun () ->
        let mf = Isel.lower_func (parse {|define i8 @f(i8 %x) {
e:
  %y = freeze i8 %x
  ret i8 %y
}|}) in
        Alcotest.(check bool) "has a Copy" true
          (List.exists (function Mir.Copy _ -> true | _ -> false) (all_insts mf)));
    Alcotest.test_case "poison lowers to a pinned undef register" `Quick (fun () ->
        let mf = Isel.lower_func (parse {|define i8 @f() {
e:
  %y = freeze i8 poison
  ret i8 %y
}|}) in
        Alcotest.(check bool) "has Undef_def" true
          (List.exists (function Mir.Undef_def _ -> true | _ -> false) (all_insts mf)));
    Alcotest.test_case "cmp fuses with branch when last" `Quick (fun () ->
        let mf = Isel.lower_func (parse {|define i8 @f(i8 %a, i8 %b) {
e:
  %c = icmp slt i8 %a, %b
  br i1 %c, label %t, label %u
t:
  ret i8 1
u:
  ret i8 2
}|}) in
        let entry = List.hd mf.Mir.blocks in
        let rec adjacent = function
          | Mir.Cmp _ :: Mir.Jcc _ :: _ -> true
          | _ :: rest -> adjacent rest
          | [] -> false
        in
        Alcotest.(check bool) "Cmp immediately before Jcc" true (adjacent entry.Mir.insts);
        Alcotest.(check bool) "no setcc" true
          (not (List.exists (function Mir.Setcc _ -> true | _ -> false) entry.Mir.insts)));
    Alcotest.test_case "non-sunk compare does not fuse" `Quick (fun () ->
        let mf = Isel.lower_func (parse {|define i8 @f(i8 %a, i8 %b) {
e:
  %c = icmp slt i8 %a, %b
  %z = add i8 %a, %b
  br i1 %c, label %t, label %u
t:
  ret i8 %z
u:
  ret i8 2
}|}) in
        let entry = List.hd mf.Mir.blocks in
        Alcotest.(check bool) "setcc used" true
          (List.exists (function Mir.Setcc _ -> true | _ -> false) entry.Mir.insts));
    Alcotest.test_case "gep selects to lea with scale" `Quick (fun () ->
        let mf = Isel.lower_func (parse {|define i32 @f(i32* %p, i32 %i) {
e:
  %q = getelementptr inbounds i32, i32* %p, i32 %i
  %v = load i32, i32* %q
  ret i32 %v
}|}) in
        Alcotest.(check bool) "lea with scale 4" true
          (List.exists
             (function Mir.Lea { addr = { Mir.scale = 4; index = Some _; _ }; _ } -> true | _ -> false)
             (all_insts mf)));
    Alcotest.test_case "vector ops legalize to scalar lanes" `Quick (fun () ->
        let mf = Isel.lower_func (parse {|define i16 @f(i16* %p) {
e:
  %pv = bitcast i16* %p to <2 x i16>*
  %v = load <2 x i16>, <2 x i16>* %pv
  %e = extractelement <2 x i16> %v, i32 0
  ret i16 %e
}|}) in
        let loads = List.filter (function Mir.Load _ -> true | _ -> false) (all_insts mf) in
        Alcotest.(check int) "two scalar loads" 2 (List.length loads));
  ]

let regalloc_tests =
  [ Alcotest.test_case "allocation eliminates all vregs" `Quick (fun () ->
        let c = compile {|define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %s = phi i32 [ 0, %entry ], [ %s1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %s1 = add nsw i32 %s, %i
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret i32 %s
}|} in
        Alcotest.(check bool) "no vregs" true (no_vregs c.Compile.mir));
    Alcotest.test_case "high pressure forces spills, still no vregs" `Quick (fun () ->
        (* 20 simultaneously-live values > 14 registers *)
        let buf = Buffer.create 512 in
        Buffer.add_string buf "define i32 @p(i32 %a) {\ne:\n";
        for i = 0 to 19 do
          Buffer.add_string buf (Printf.sprintf "  %%v%d = add nsw i32 %%a, %d\n" i i)
        done;
        let rec chain i acc =
          if i > 19 then acc
          else begin
            Buffer.add_string buf (Printf.sprintf "  %%s%d = add i32 %s, %%v%d\n" i acc i);
            chain (i + 1) (Printf.sprintf "%%s%d" i)
          end
        in
        let last = chain 0 "%a" in
        Buffer.add_string buf (Printf.sprintf "  ret i32 %s\n}" last);
        let c = compile (Buffer.contents buf) in
        Alcotest.(check bool) "no vregs" true (no_vregs c.Compile.mir));
  ]

let cost_tests =
  [ Alcotest.test_case "LEA r13 penalty (the Queens effect)" `Quick (fun () ->
        let lea base =
          Mir.Lea { dst = Mir.Preg 0; addr = { Mir.base; index = None; scale = 1; disp = 0 } }
        in
        let fast = Cost.inst_cost Target.machine1 None (lea (Mir.Preg 12 (* r14 *))) in
        let slow = Cost.inst_cost Target.machine1 None (lea (Mir.Preg Target.r13)) in
        Alcotest.(check bool) "r13 slower" true (slow > fast);
        Alcotest.(check bool) "machine2 penalty larger" true
          (Cost.inst_cost Target.machine2 None (lea (Mir.Preg Target.r13)) -. Target.machine2.Target.lat_lea
           > slow -. fast));
    Alcotest.test_case "macro-fusion makes cmp+jcc cheap" `Quick (fun () ->
        let jcc = Mir.Jcc (Mir.CEq, "x") in
        let fused = Cost.inst_cost Target.machine1 (Some (Mir.Cmp (Mir.W32, Mir.Preg 0, Mir.Imm 0L))) jcc in
        let lone = Cost.inst_cost Target.machine1 (Some (Mir.Mov (Mir.W32, Mir.Preg 0, Mir.Imm 0L))) jcc in
        Alcotest.(check bool) "fused cheaper" true (fused < lone));
    Alcotest.test_case "freeze costs one copy at runtime" `Quick (fun () ->
        let with_freeze = compile {|define i8 @f(i8 %x) {
e:
  %y = freeze i8 %x
  ret i8 %y
}|} in
        let without = compile {|define i8 @f(i8 %x) {
e:
  ret i8 %x
}|} in
        let profile = [ ("e", 1) ] in
        let cw = Compile.simulate_cycles Target.machine1 with_freeze ~profile in
        let co = Compile.simulate_cycles Target.machine1 without ~profile in
        Alcotest.(check bool) "costs a bit more" true (cw > co);
        Alcotest.(check bool) "but at most a couple cycles" true (cw -. co <= 2.0));
    Alcotest.test_case "pinned undef register costs nothing" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "zero" 0.0
          (Cost.inst_cost Target.machine1 None (Mir.Undef_def (Mir.Preg 3))));
  ]

let emit_tests =
  [ Alcotest.test_case "object size positive and REX-sensitive" `Quick (fun () ->
        let small = Mir.Mov (Mir.W32, Mir.Preg 0, Mir.Imm 1L) in
        let rex = Mir.Mov (Mir.W32, Mir.Preg 12, Mir.Imm 1L) in
        Alcotest.(check bool) "rex costs a byte" true (Emit.inst_size rex > Emit.inst_size small));
    Alcotest.test_case "r13 base forces a displacement byte" `Quick (fun () ->
        let mk base =
          Mir.Load (Mir.W32, Mir.Preg 0, { Mir.base; index = None; scale = 1; disp = 0 })
        in
        Alcotest.(check bool) "r13 load bigger" true
          (Emit.inst_size (mk (Mir.Preg Target.r13)) > Emit.inst_size (mk (Mir.Preg 0))));
    Alcotest.test_case "undef register emits no bytes" `Quick (fun () ->
        Alcotest.(check int) "zero" 0 (Emit.inst_size (Mir.Undef_def (Mir.Preg 1))));
    Alcotest.test_case "asm text is generated" `Quick (fun () ->
        let c = compile {|define i8 @f(i8 %x) {
e:
  %y = add nsw i8 %x, 1
  ret i8 %y
}|} in
        Alcotest.(check bool) "mentions add" true
          (Ub_support.Util.string_contains ~needle:"add" c.Compile.asm);
        Alcotest.(check bool) "size positive" true (c.Compile.obj_size > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel moves and spills, executed end to end: compile a phi cycle *)
(* and run the allocated MIR under [Mir_sem] — the machine result must  *)
(* match the IR interpreter.  The swap shape needs an odd number of     *)
(* back edges to observe a broken cycle; the lost-copy shape keeps the  *)
(* phi destination live out of the loop.                                *)
(* ------------------------------------------------------------------ *)

let widths = [ ("i8", 8); ("i16", 16); ("i32", 32); ("i64", 64) ]

let conc w n = Ub_sem.Value.Scalar (Ub_sem.Value.Conc (Ub_support.Bitvec.of_int ~width:w n))

let ret_equals ?(args = []) ~w ~expect src =
  let fn = parse src in
  let c = Compile.compile_func fn in
  (match (Ub_sem.Interp.run ~fuel:1_000_000 fn args).Ub_sem.Interp.outcome with
  | Ub_sem.Interp.Returned (Some (Ub_sem.Value.Scalar (Ub_sem.Value.Conc bv))) ->
    Alcotest.(check int64) "IR result" (Int64.of_int expect) (Ub_support.Bitvec.to_uint64 bv)
  | o -> Alcotest.failf "IR run: %s" (Ub_sem.Interp.outcome_to_string o));
  match
    (Mir_sem.run ~form:(Mir_sem.Physical c.Compile.arg_locs) c.Compile.mir args)
      .Mir_sem.outcome
  with
  | Mir_sem.Returned (Some bv) ->
    Alcotest.(check int64) "MIR result" (Int64.of_int expect)
      (Ub_support.Bitvec.to_uint64 (Ub_support.Bitvec.trunc bv ~width:w))
  | o -> Alcotest.failf "MIR run: %s" (Mir_sem.outcome_to_string o)

(* x and y trade places on every back edge; trip=4 runs the back edge 3
   times (odd), so a sequentialized-without-temp or dropped copy is
   observable *)
let swap_src ty =
  Printf.sprintf
    {|define %s @swap(%s %%a, %s %%b) {
entry:
  br label %%loop
loop:
  %%i = phi i4 [ 0, %%entry ], [ %%i1, %%loop ]
  %%x = phi %s [ %%a, %%entry ], [ %%y, %%loop ]
  %%y = phi %s [ %%b, %%entry ], [ %%x, %%loop ]
  %%i1 = add i4 %%i, 1
  %%c = icmp ult i4 %%i1, 4
  br i1 %%c, label %%loop, label %%after
after:
  %%d = sub %s %%x, %%y
  ret %s %%d
}|}
    ty ty ty ty ty ty ty

(* the classic lost-copy shape: the phi destination x is live out of the
   loop, so the back-edge copy must not clobber it early *)
let lost_copy_src ty =
  Printf.sprintf
    {|define %s @lost(%s %%a) {
entry:
  br label %%loop
loop:
  %%i = phi i4 [ 0, %%entry ], [ %%i1, %%loop ]
  %%x = phi %s [ %%a, %%entry ], [ %%y, %%loop ]
  %%y = add %s %%x, 1
  %%i1 = add i4 %%i, 1
  %%c = icmp ult i4 %%i1, 4
  br i1 %%c, label %%loop, label %%after
after:
  ret %s %%x
}|}
    ty ty ty ty ty

let parallel_move_tests =
  List.concat_map
    (fun (ty, w) ->
      [ Alcotest.test_case (Printf.sprintf "swap cycle round-trips at %s" ty) `Quick
          (fun () ->
            (* 3 swaps: x=b, y=a; d = b - a = 11 - 2 = 9 *)
            ret_equals ~args:[ conc w 2; conc w 11 ] ~w ~expect:9 (swap_src ty));
        Alcotest.test_case (Printf.sprintf "lost-copy cycle round-trips at %s" ty) `Quick
          (fun () ->
            (* x advances a+0, a+1, a+2, a+3 across 3 back edges *)
            ret_equals ~args:[ conc w 5 ] ~w ~expect:8 (lost_copy_src ty));
      ])
    widths
  @ [ Alcotest.test_case "spill pressure round-trips (15-deep sum chain)" `Quick
        (fun () ->
          (* more simultaneously-live values than allocatable registers:
             the allocator must spill, and the spill code must preserve
             every value (this shape caught the victim-reuse clobber) *)
          let buf = Buffer.create 512 in
          Buffer.add_string buf "define i8 @p(i2 %a, i2 %b) {\ne:\n";
          Buffer.add_string buf "  %xa = zext i2 %a to i8\n";
          Buffer.add_string buf "  %xb = zext i2 %b to i8\n";
          for i = 0 to 14 do
            Buffer.add_string buf
              (Printf.sprintf "  %%v%d = add i8 %%x%c, %d\n" i
                 (if i mod 2 = 0 then 'a' else 'b')
                 i)
          done;
          let rec chain i acc =
            if i > 14 then acc
            else begin
              Buffer.add_string buf (Printf.sprintf "  %%s%d = add i8 %s, %%v%d\n" i acc i);
              chain (i + 1) (Printf.sprintf "%%s%d" i)
            end
          in
          let last = chain 0 "%xa" in
          Buffer.add_string buf (Printf.sprintf "  ret i8 %s\n}" last);
          (* a=1, b=2: xa=1, xb=2; v_i = (i even ? 1 : 2) + i;
             sum = xa + sum v_i = 1 + (8*1 + 7*2 + 105) = 128 *)
          ret_equals ~args:[ conc 2 1; conc 2 2 ] ~w:8 ~expect:128 (Buffer.contents buf));
    ]

(* ------------------------------------------------------------------ *)
(* Translation validation: clean triggers refine, each injected bug is  *)
(* caught on its verified trigger shape.                                *)
(* ------------------------------------------------------------------ *)

let tv_check ?bug src = Tv.check_func ?bug ~fuel:1_000 ~max_runs:2_000 (parse src)

let trigger_swap =
  {|define i8 @t() {
entry:
  br label %loop
loop:
  %i = phi i4 [ 0, %entry ], [ %i1, %loop ]
  %x = phi i8 [ 1, %entry ], [ %y, %loop ]
  %y = phi i8 [ 9, %entry ], [ %x, %loop ]
  %i1 = add i4 %i, 1
  %c = icmp ult i4 %i1, 4
  br i1 %c, label %loop, label %after
after:
  %d = sub i8 %x, %y
  ret i8 %d
}|}

let trigger_select =
  {|define i2 @t(i2 %a, i2 %b) {
e:
  %c = icmp slt i2 %a, %b
  %s = select i1 %c, i2 %a, i2 %b
  ret i2 %s
}|}

let trigger_diamond =
  {|define i2 @t(i2 %a) {
e:
  %z = zext i2 %a to i8
  %c = icmp eq i8 %z, 2
  br i1 %c, label %t, label %f
t:
  %u = add i8 %z, 3
  br label %m
f:
  %v = add i8 %z, 5
  br label %m
m:
  %p = phi i8 [ %u, %t ], [ %v, %f ]
  %r = trunc i8 %p to i2
  ret i2 %r
}|}

(* the generator's verified pressure shape: 14 live i8 values over
   zext'd i2 arguments, enough to spill *)
let trigger_pressure =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "define i8 @t(i2 %a, i2 %b) {\ne:\n";
  Buffer.add_string buf "  %xa = zext i2 %a to i8\n  %xb = zext i2 %b to i8\n";
  for i = 0 to 13 do
    Buffer.add_string buf
      (Printf.sprintf "  %%v%d = add i8 %%x%c, %d\n" i
         (if i mod 2 = 0 then 'a' else 'b')
         i)
  done;
  let rec chain i acc =
    if i > 13 then acc
    else begin
      Buffer.add_string buf (Printf.sprintf "  %%s%d = add i8 %s, %%v%d\n" i acc i);
      chain (i + 1) (Printf.sprintf "%%s%d" i)
    end
  in
  let last = chain 0 "%xa" in
  Buffer.add_string buf (Printf.sprintf "  ret i8 %s\n}" last);
  Buffer.contents buf

let tv_tests =
  let clean name src =
    Alcotest.test_case ("clean backend refines: " ^ name) `Quick (fun () ->
        match tv_check src with
        | Tv.Refined -> ()
        | v -> Alcotest.failf "expected refined, got: %s" (Tv.verdict_to_string v))
  in
  let caught bug src =
    Alcotest.test_case ("TV catches " ^ bug) `Quick (fun () ->
        match tv_check ~bug:(Mir_inject.find_exn bug) src with
        | Tv.Not_refined _ -> ()
        | v -> Alcotest.failf "expected NOT refined, got: %s" (Tv.verdict_to_string v))
  in
  [ clean "swap loop" trigger_swap;
    clean "select chain" trigger_select;
    clean "diamond" trigger_diamond;
    clean "spill pressure" trigger_pressure;
    caught "drop-parallel-move-copy" trigger_swap;
    caught "swap-without-temp" trigger_swap;
    caught "cmov-stale-flags" trigger_select;
    caught "spill-slot-alias" trigger_pressure;
    caught "const-prop-bad-arm" trigger_diamond;
    Alcotest.test_case "unmodeled calls classify as unsupported" `Quick (fun () ->
        match
          tv_check
            {|define i8 @t(i8 %x) {
e:
  %r = call i8 @mystery(i8 %x)
  ret i8 %r
}|}
        with
        | Tv.Unsupported _ -> ()
        | v -> Alcotest.failf "expected unsupported, got: %s" (Tv.verdict_to_string v));
  ]

(* Shrinking stops after a count of TV checks, not at a clock
   deadline, so its witness does not depend on machine speed. *)
let shrink_deterministic =
  Alcotest.test_case "spill-slot-alias shrink under max_checks is deterministic" `Quick
    (fun () ->
      let bug = Mir_inject.find_exn "spill-slot-alias" in
      let run () =
        let red, stats = Tv.shrink ~max_checks:50 ~bug (parse trigger_pressure) in
        (red, Printer.func_to_string red, stats)
      in
      let red, w1, s1 = run () in
      let _, w2, s2 = run () in
      Alcotest.(check string) "same witness" w1 w2;
      Alcotest.(check bool) "same stats" true (s1 = s2);
      Alcotest.(check bool) "budget respected" true (s1.Ub_shrink.Reduce.oracle_calls <= 50);
      match Tv.check_func ~bug red with
      | Tv.Not_refined _ -> ()
      | v -> Alcotest.failf "shrunk witness: %s" (Tv.verdict_to_string v))

(* ------------------------------------------------------------------ *)
(* Undefined flags resolve one bit at a time, pinned until the next    *)
(* flag write.  Hand-built virtual-form MIR; runs are counted by       *)
(* wrapping the oracle exploration.                                    *)
(* ------------------------------------------------------------------ *)

let v i = Mir.Reg (Mir.Vreg i)

(* r0 := 3; r1 := 5; r2 := r3 := 0, then [body], returning r2. *)
let mir_func body =
  { Mir.mname = "flags";
    blocks =
      [ { Mir.mlabel = "entry";
          insts =
            [ Mir.Mov (Mir.W32, Mir.Vreg 0, Mir.Imm 3L);
              Mir.Mov (Mir.W32, Mir.Vreg 1, Mir.Imm 5L);
              Mir.Mov (Mir.W32, Mir.Vreg 2, Mir.Imm 0L);
              Mir.Mov (Mir.W32, Mir.Vreg 3, Mir.Imm 0L);
            ]
            @ body
            @ [ Mir.Ret (Some (Mir.Vreg 2)) ];
        };
      ];
    nvregs = 4;
    nslots = 0;
  }

let imul = Mir.Bin (Mir.BImul, Mir.W32, Mir.Vreg 0, v 1)

(* (number of runs, sorted distinct returned words) *)
let explore_mir f =
  let runs = ref 0 in
  let results =
    Ub_sem.Oracle.explore ~max_runs:1_000 (fun oracle ->
        incr runs;
        match (Mir_sem.run ~oracle ~form:Mir_sem.Virtual f []).Mir_sem.outcome with
        | Mir_sem.Returned (Some bv) -> Ub_support.Bitvec.to_uint64 bv
        | o -> Alcotest.failf "unexpected outcome: %s" (Mir_sem.outcome_to_string o))
  in
  (!runs, List.sort_uniq compare results)

(* r2 := (r2 << 1) | r3 *)
let pack =
  [ Mir.Bin (Mir.BShl, Mir.W32, Mir.Vreg 2, Mir.Imm 1L); Mir.Bin (Mir.BOr, Mir.W32, Mir.Vreg 2, v 3) ]

let results = Alcotest.(list int64)

let mir_flag_tests =
  let conds = Mir.[ CEq; CNe; CUgt; CUge; CUlt; CUle; CSgt; CSge; CSlt; CSle ] in
  [ Alcotest.test_case "setcc eq after imul reads only ZF: 2 runs" `Quick (fun () ->
        let runs, rs = explore_mir (mir_func [ imul; Mir.Setcc (Mir.CEq, Mir.Vreg 2) ]) in
        Alcotest.(check int) "runs" 2 runs;
        Alcotest.check results "results" [ 0L; 1L ] rs);
    Alcotest.test_case "a read bit stays pinned until the next flag write" `Quick (fun () ->
        let _, rs =
          explore_mir
            (mir_func
               ([ imul; Mir.Setcc (Mir.CEq, Mir.Vreg 2); Mir.Setcc (Mir.CNe, Mir.Vreg 3) ]
               @ pack))
        in
        Alcotest.check results "eq and ne always disagree" [ 1L; 2L ] rs);
    Alcotest.test_case "a flag write resets the pins" `Quick (fun () ->
        let _, rs =
          explore_mir
            (mir_func
               ([ imul; Mir.Setcc (Mir.CEq, Mir.Vreg 2); imul; Mir.Setcc (Mir.CEq, Mir.Vreg 3) ]
               @ pack))
        in
        Alcotest.check results "all four combinations" [ 0L; 1L; 2L; 3L ] rs);
    Alcotest.test_case "cmp then jcc makes no choice" `Quick (fun () ->
        let f =
          { (mir_func []) with
            Mir.blocks =
              [ { Mir.mlabel = "entry";
                  insts =
                    [ Mir.Mov (Mir.W32, Mir.Vreg 0, Mir.Imm 3L);
                      Mir.Mov (Mir.W32, Mir.Vreg 2, Mir.Imm 1L);
                      Mir.Cmp (Mir.W32, Mir.Vreg 0, Mir.Imm 3L);
                      Mir.Jcc (Mir.CEq, "out");
                      Mir.Mov (Mir.W32, Mir.Vreg 2, Mir.Imm 0L);
                      Mir.Jmp "out";
                    ];
                };
                { Mir.mlabel = "out"; insts = [ Mir.Ret (Some (Mir.Vreg 2)) ] };
              ];
          }
        in
        let runs, rs = explore_mir f in
        Alcotest.(check int) "runs" 1 runs;
        Alcotest.check results "results" [ 1L ] rs);
    Alcotest.test_case "every condition read after imul yields 0 and 1" `Quick (fun () ->
        List.iteri
          (fun i c ->
            let _, rs = explore_mir (mir_func [ imul; Mir.Setcc (c, Mir.Vreg 2) ]) in
            Alcotest.check results (Printf.sprintf "condition %d" i) [ 0L; 1L ] rs)
          conds);
  ]

(* A read of an undefined 64-bit register or spill slot is a choice
   wider than the explorer's [max_width_bits], sampled at 0 and all-ones
   only (oracle.ml).  Pinned so that changing this approximation is a
   deliberate act: raising [Exhausted] instead would make every TV of a
   function that reads an undef register [Unsupported]. *)
let mir_undef_tests =
  let behaviours insts =
    let f =
      { Mir.mname = "undef"; blocks = [ { Mir.mlabel = "entry"; insts } ]; nvregs = 1; nslots = 1 }
    in
    List.map
      (fun (b : Mir_sem.behavior) -> Mir_sem.outcome_to_string b.Mir_sem.b_outcome)
      (Mir_sem.enumerate (Mir_sem.prepare ~form:Mir_sem.Virtual f) [])
  in
  let both = [ "ret 0xffffffffffffffff"; "ret 0x0" ] in
  [ Alcotest.test_case "returning an undefined register has exactly two behaviours" `Quick
      (fun () ->
        Alcotest.(check (list string)) "0 and all-ones" both
          (behaviours [ Mir.Undef_def (Mir.Vreg 0); Mir.Ret (Some (Mir.Vreg 0)) ]));
    Alcotest.test_case "so has reloading an unwritten spill slot" `Quick (fun () ->
        Alcotest.(check (list string)) "0 and all-ones" both
          (behaviours [ Mir.Spill_load (0, Mir.Vreg 0); Mir.Ret (Some (Mir.Vreg 0)) ]));
  ]

(* property: compiling the whole corpus succeeds, with no vregs left and
   positive sizes *)
let corpus_compiles =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random corpus compiles cleanly" ~count:40
       QCheck2.Gen.(int_range 0 5_000)
       (fun seed ->
         let fns = Ub_fuzz.Gen.random_corpus ~seed ~size:2 in
         List.for_all
           (fun fn ->
             let c = Compile.compile_func fn in
             no_vregs c.Compile.mir && c.Compile.obj_size > 0)
           fns))

let () =
  Alcotest.run "backend"
    [ ("isel", isel_tests);
      ("regalloc", regalloc_tests);
      ("parallel-move", parallel_move_tests);
      ("tv", tv_tests @ [ shrink_deterministic ]);
      ("mir-flags", mir_flag_tests);
      ("mir-undef", mir_undef_tests);
      ("cost", cost_tests);
      ("emit", emit_tests);
      ("properties", [ corpus_compiles ]);
    ]
