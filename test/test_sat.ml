(* The CDCL solver: unit cases and exhaustive cross-checking against
   brute force on random instances. *)

open Ub_sat

(* A naive DPLL reference solver: unit propagation plus chronological
   splitting, no learning, no heuristics.  Slow but obviously correct;
   the CDCL solver must agree with it on instances too large for the
   2^n brute-force check. *)
let dpll nvars clauses =
  let assign = Array.make (max 1 nvars) 0 in
  let value l =
    match assign.(Solver.var_of l) with
    | 0 -> `Unk
    | 1 -> if Solver.is_neg l then `False else `True
    | _ -> if Solver.is_neg l then `True else `False
  in
  let set l = assign.(Solver.var_of l) <- (if Solver.is_neg l then 2 else 1) in
  let rec go () =
    let trail = ref [] in
    let conflict = ref false in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun c ->
          if not !conflict then begin
            let sat = ref false and unk = ref [] in
            List.iter
              (fun l ->
                match value l with
                | `True -> sat := true
                | `Unk -> unk := l :: !unk
                | `False -> ())
              c;
            if not !sat then
              match !unk with
              | [] -> conflict := true
              | [ l ] ->
                set l;
                trail := Solver.var_of l :: !trail;
                progress := true
              | _ -> ()
          end)
        clauses;
      if !conflict then progress := false
    done;
    let result =
      if !conflict then false
      else begin
        let next = ref (-1) in
        (try
           for v = 0 to nvars - 1 do
             if assign.(v) = 0 then begin
               next := v;
               raise Exit
             end
           done
         with Exit -> ());
        if !next < 0 then true (* total assignment, every clause satisfied *)
        else begin
          let v = !next in
          let branch b =
            assign.(v) <- b;
            let r = go () in
            assign.(v) <- 0;
            r
          in
          branch 1 || branch 2
        end
      end
    in
    List.iter (fun v -> assign.(v) <- 0) !trail;
    result
  in
  go ()

let brute nvars clauses =
  let n = 1 lsl nvars in
  let rec try_ i =
    if i >= n then None
    else begin
      let model = Array.init nvars (fun v -> (i lsr v) land 1 = 1) in
      if Solver.model_satisfies model clauses then Some model else try_ (i + 1)
    end
  in
  try_ 0

(* The clauses watching literal [l]'s falsification, i.e. visited when
   [lnot l] becomes true. *)
let watchers (s : Solver.t) (l : Solver.lit) =
  Ub_support.Vec.to_list s.Solver.watches.(Solver.lnot l)

let unit_tests =
  [ Alcotest.test_case "trivially sat" `Quick (fun () ->
        match Solver.solve_clauses ~nvars:2 [ [ Solver.pos 0 ]; [ Solver.neg 1 ] ] with
        | Solver.Sat m ->
          Alcotest.(check bool) "v0" true m.(0);
          Alcotest.(check bool) "v1" false m.(1)
        | Solver.Unsat -> Alcotest.fail "should be sat");
    Alcotest.test_case "trivially unsat" `Quick (fun () ->
        match Solver.solve_clauses ~nvars:1 [ [ Solver.pos 0 ]; [ Solver.neg 0 ] ] with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "should be unsat");
    Alcotest.test_case "empty clause unsat" `Quick (fun () ->
        match Solver.solve_clauses ~nvars:1 [ [] ] with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "should be unsat");
    Alcotest.test_case "pigeonhole 3->2 unsat" `Quick (fun () ->
        (* pigeon i in hole j: var 2i+j, i<3, j<2 *)
        let v i j = Solver.pos ((2 * i) + j) in
        let nv i j = Solver.neg ((2 * i) + j) in
        let clauses =
          [ [ v 0 0; v 0 1 ]; [ v 1 0; v 1 1 ]; [ v 2 0; v 2 1 ] ]
          @ List.concat_map
              (fun j ->
                [ [ nv 0 j; nv 1 j ]; [ nv 0 j; nv 2 j ]; [ nv 1 j; nv 2 j ] ])
              [ 0; 1 ]
        in
        match Solver.solve_clauses ~nvars:6 clauses with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "pigeonhole should be unsat");
    Alcotest.test_case "watch lists survive a propagation conflict" `Quick (fun () ->
        (* Four clauses all watch ~x0.  Deciding x0 makes clause 1 unit
           (propagating x1), clause 2 a conflict, and leaves clauses 3-4
           as the unvisited tail of the watch vector — the compaction in
           [propagate] must copy that tail, not drop it. *)
        let s = Solver.create 4 in
        let ok =
          List.for_all
            (fun c -> Solver.add_clause s (Array.of_list c))
            [ [ Solver.neg 0; Solver.pos 1 ];
              [ Solver.neg 0; Solver.neg 1 ];
              [ Solver.neg 0; Solver.pos 2 ];
              [ Solver.neg 0; Solver.pos 3 ];
            ]
        in
        Alcotest.(check bool) "clauses accepted" true ok;
        let before = watchers s (Solver.neg 0) in
        Alcotest.(check int) "four clauses watch ~x0" 4 (List.length before);
        s.Solver.trail_lim.(0) <- s.Solver.trail_len;
        s.Solver.decision_level <- 1;
        Solver.enqueue s (Solver.pos 0) None;
        (match Solver.propagate s with
        | None -> Alcotest.fail "expected a conflict"
        | Some _ -> ());
        let after = watchers s (Solver.neg 0) in
        Alcotest.(check int) "watch list intact after conflict" 4 (List.length after);
        List.iter2
          (fun a b -> Alcotest.(check bool) "same clause in the same slot" true (a == b))
          before after);
    Alcotest.test_case "phase saving reproduces the model on re-solve" `Quick (fun () ->
        let s = Solver.create 6 in
        let clauses =
          [ [ Solver.pos 0; Solver.pos 1 ];
            [ Solver.neg 0; Solver.pos 2 ];
            [ Solver.neg 2; Solver.pos 3; Solver.neg 4 ];
            [ Solver.pos 4; Solver.pos 5 ];
            [ Solver.neg 1; Solver.neg 5 ];
          ]
        in
        let ok = List.for_all (fun c -> Solver.add_clause s (Array.of_list c)) clauses in
        Alcotest.(check bool) "clauses accepted" true ok;
        (match (Solver.solve s, Solver.solve s) with
        | Solver.Sat m1, Solver.Sat m2 ->
          Alcotest.(check bool) "first model valid" true (Solver.model_satisfies m1 clauses);
          Alcotest.(check (array bool)) "saved phases reproduce the model" m1 m2
        | _ -> Alcotest.fail "instance is satisfiable"));
    Alcotest.test_case "add_clause after a refutation keeps the trail consistent" `Quick
      (fun () ->
        let s = Solver.create 3 in
        Alcotest.(check bool) "x accepted" true (Solver.add_clause s [| Solver.pos 0 |]);
        Alcotest.(check bool) "!x refutes" false (Solver.add_clause s [| Solver.neg 0 |]);
        Alcotest.(check bool) "empty clause refutes" false (Solver.add_clause s [||]);
        ignore (Solver.add_clause s [| Solver.pos 1 |]);
        ignore (Solver.add_clause s [| Solver.neg 1 |]);
        ignore (Solver.add_clause s [| Solver.neg 2; Solver.neg 0 |]);
        (* every trail entry is the one assignment of its variable *)
        let seen = Array.make 3 false in
        for i = 0 to s.Solver.trail_len - 1 do
          let l = s.Solver.trail.(i) in
          let v = Solver.var_of l in
          Alcotest.(check bool) "assigned once" false seen.(v);
          seen.(v) <- true;
          Alcotest.(check bool) "trail matches the assignment" true
            (s.Solver.assign.(v) = if Solver.is_neg l then 2 else 1)
        done;
        (* x, y, and !z (the x-falsified literal was dropped from the
           last clause, leaving the unit !z) *)
        Alcotest.(check int) "three assignments" 3 s.Solver.trail_len);
    Alcotest.test_case "per-call budget raises; the solver survives" `Quick (fun () ->
        (* pigeonhole needs at least one conflict to refute, so a
           zero-conflict budget deterministically trips *)
        let v i j = Solver.pos ((2 * i) + j) in
        let nv i j = Solver.neg ((2 * i) + j) in
        let s = Solver.create 6 in
        List.iter
          (fun c -> ignore (Solver.add_clause s (Array.of_list c)))
          ([ [ v 0 0; v 0 1 ]; [ v 1 0; v 1 1 ]; [ v 2 0; v 2 1 ] ]
          @ List.concat_map
              (fun j -> [ [ nv 0 j; nv 1 j ]; [ nv 0 j; nv 2 j ]; [ nv 1 j; nv 2 j ] ])
              [ 0; 1 ]);
        (match Solver.solve ~max_conflicts:0 s with
        | exception Solver.Budget_exceeded -> ()
        | Solver.Unsat -> Alcotest.fail "cannot refute pigeonhole with zero conflicts"
        | Solver.Sat _ -> Alcotest.fail "pigeonhole is unsat");
        match Solver.solve s with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "pigeonhole is unsat after recovery");
    Alcotest.test_case "xor chain sat" `Quick (fun () ->
        (* x0 xor x1 = 1, x1 xor x2 = 1, x0 = 1 => x2 = 1 *)
        let xor1 a b =
          [ [ Solver.pos a; Solver.pos b ]; [ Solver.neg a; Solver.neg b ] ]
        in
        match
          Solver.solve_clauses ~nvars:3 ((xor1 0 1 @ xor1 1 2) @ [ [ Solver.pos 0 ] ])
        with
        | Solver.Sat m ->
          Alcotest.(check bool) "x2 follows" true m.(2);
          Alcotest.(check bool) "x1 follows" false m.(1)
        | Solver.Unsat -> Alcotest.fail "should be sat");
  ]

let random_cnf =
  QCheck2.Gen.(
    int_range 1 9 >>= fun nvars ->
    int_range 1 40 >>= fun nclauses ->
    let lit = map2 (fun v s -> if s then Solver.pos v else Solver.neg v) (int_bound (nvars - 1)) bool in
    let clause = list_size (int_range 1 4) lit in
    pair (return nvars) (list_size (return nclauses) clause))

(* Larger instances than [random_cnf]: past brute force's comfort zone
   but fine for the DPLL reference. *)
let random_cnf_large =
  QCheck2.Gen.(
    int_range 1 12 >>= fun nvars ->
    int_range 1 60 >>= fun nclauses ->
    let lit =
      map2 (fun v s -> if s then Solver.pos v else Solver.neg v) (int_bound (nvars - 1)) bool
    in
    let clause = list_size (int_range 1 5) lit in
    pair (return nvars) (list_size (return nclauses) clause))

(* A 0-5 literal clause over 4 vars, with duplicates and complementary
   pairs likely, after level-0 units on some of the vars. *)
let clause_after_units =
  QCheck2.Gen.(
    pair (list_repeat 4 (opt bool)) (list_size (int_range 0 5) (int_bound 7)))

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"add_clause normalises like the list reference" ~count:1000
         clause_after_units
         (fun (units, clause) ->
           let s = Solver.create 4 in
           List.iteri
             (fun v -> function
               | None -> ()
               | Some b -> ignore (Solver.add_clause s [| Solver.lit_of ~negated:(not b) v |]))
             units;
           (* the reference: sort, dedupe, drop literals false at level 0;
              a tautology is accepted and not stored *)
           let sorted = List.sort_uniq compare clause in
           let taut = List.exists (fun l -> List.mem (Solver.lnot l) sorted) sorted in
           let kept = List.filter (fun l -> Solver.value_lit s l <> 2) sorted in
           let stored0 = List.length s.Solver.clauses and trail0 = s.Solver.trail_len in
           let was_true = match kept with [ l ] -> Solver.value_lit s l = 1 | _ -> false in
           let ok = Solver.add_clause s (Array.of_list clause) in
           let stored = List.length s.Solver.clauses - stored0
           and enqueued = s.Solver.trail_len - trail0 in
           if taut then ok && stored = 0 && enqueued = 0
           else
             match kept with
             | [] -> (not ok) && stored = 0 && enqueued = 0
             | [ l ] ->
               ok && stored = 0
               && if was_true then enqueued = 0 else enqueued = 1 && s.Solver.trail.(trail0) = l
             | _ ->
               ok && stored = 1 && enqueued = 0
               && (List.hd s.Solver.clauses).Solver.lits = Array.of_list kept));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"agrees with brute force" ~count:800 random_cnf
         (fun (nvars, clauses) ->
           match (Solver.solve_clauses ~nvars clauses, brute nvars clauses) with
           | Solver.Sat m, Some _ -> Solver.model_satisfies m clauses
           | Solver.Unsat, None -> true
           | Solver.Sat _, None | Solver.Unsat, Some _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"learned clauses don't break repeat solving" ~count:100
         random_cnf
         (fun (nvars, clauses) ->
           let r1 = Solver.solve_clauses ~nvars clauses in
           let r2 = Solver.solve_clauses ~nvars clauses in
           match (r1, r2) with
           | Solver.Sat _, Solver.Sat _ | Solver.Unsat, Solver.Unsat -> true
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"agrees with the DPLL reference" ~count:300 random_cnf_large
         (fun (nvars, clauses) ->
           match Solver.solve_clauses ~nvars clauses with
           | Solver.Sat m -> Solver.model_satisfies m clauses && dpll nvars clauses
           | Solver.Unsat -> not (dpll nvars clauses)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"every live clause is watched exactly twice after solving" ~count:200
         random_cnf_large
         (fun (nvars, clauses) ->
           let s = Solver.create nvars in
           let ok = List.for_all (fun c -> Solver.add_clause s (Array.of_list c)) clauses in
           if ok then ignore (Solver.solve s);
           let count_watches c =
             let n = ref 0 in
             Array.iter
               (Ub_support.Vec.iter (fun c' -> if c' == c then incr n))
               s.Solver.watches;
             !n
           in
           let check_clause (c : Solver.clause) =
             if c.Solver.deleted then count_watches c = 0
             else Array.length c.Solver.lits < 2 || count_watches c = 2
           in
           List.for_all check_clause s.Solver.clauses
           && List.for_all check_clause (Ub_support.Vec.to_list s.Solver.learnts)
           && Ub_support.Vec.length Solver.unwatched = 0));
  ]

let () = Alcotest.run "sat" [ ("unit", unit_tests); ("properties", props) ]
