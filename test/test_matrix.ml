(* The Section 3 soundness matrix: every cell with a paper expectation
   must agree with the checker, and the paper's headline claims must hold
   structurally (no old mode validates everything; the proposed mode plus
   the freeze fixes validates the fixed set). *)

open Ub_refine

(* The whole matrix, checked once; every test reads its cells.  The
   pool's envelope turns an exception from the checker into a crashed
   task and [Sweep] into an [Unknown] cell, which no agreement test
   would notice, so a crashed or timed-out check fails every test. *)
let report = lazy (Matrix.run_all_exec ())

let cells_of id =
  let r = Lazy.force report in
  let pool = r.Matrix.pool in
  if pool.Ub_exec.Pool.crashed > 0 || pool.Ub_exec.Pool.timed_out > 0 then
    Alcotest.failf "%d checks crashed and %d timed out:%s" pool.Ub_exec.Pool.crashed
      pool.Ub_exec.Pool.timed_out
      (String.concat ""
         (List.concat_map
            (fun ((e : Matrix.entry), cells) ->
              List.filter_map
                (fun (c : Matrix.cell) ->
                  match c.Matrix.verdict with
                  | Checker.Unknown why ->
                    Some (Printf.sprintf "\n  %s under %s: %s" e.Matrix.id c.Matrix.mode_name why)
                  | _ -> None)
                cells)
            r.Matrix.results));
  snd (List.find (fun ((e : Matrix.entry), _) -> e.Matrix.id = id) r.Matrix.results)

let agreement_tests =
  List.map
    (fun (e : Matrix.entry) ->
      Alcotest.test_case (e.Matrix.id ^ " agrees with the paper") `Quick (fun () ->
          List.iter
            (fun (c : Matrix.cell) ->
              match c.Matrix.agrees with
              | Some false ->
                Alcotest.failf "%s under %s: checker says %s, paper expects %s" e.Matrix.id
                  c.Matrix.mode_name
                  (Checker.verdict_to_string c.Matrix.verdict)
                  (match c.Matrix.expected with
                  | Some Matrix.Sound -> "sound"
                  | Some Matrix.Unsound -> "unsound"
                  | _ -> "?")
              | Some true | None -> ())
            (cells_of e.Matrix.id)))
    Matrix.all_entries

let find_cell id mode =
  List.find (fun (c : Matrix.cell) -> c.Matrix.mode_name = mode) (cells_of id)

let is_sound (c : Matrix.cell) = c.Matrix.verdict = Checker.Refines
let is_unsound (c : Matrix.cell) =
  match c.Matrix.verdict with Checker.Counterexample _ -> true | _ -> false

let headline_tests =
  [ Alcotest.test_case "no old semantics validates both unswitching and GVN" `Quick (fun () ->
        (* the Section 3.3 conflict, mode by mode *)
        List.iter
          (fun mode ->
            let unswitch_ok = is_sound (find_cell "loop-unswitch-raw" mode) in
            let gvn_ok = is_sound (find_cell "gvn-predicate" mode) in
            Alcotest.(check bool)
              (Printf.sprintf "%s cannot have both" mode)
              false (unswitch_ok && gvn_ok))
          [ "old-unswitch"; "old-gvn"; "old-langref"; "old-simplifycfg" ]);
    Alcotest.test_case "proposed semantics + freeze fixes validate everything" `Quick (fun () ->
        List.iter
          (fun id ->
            Alcotest.(check bool) (id ^ " sound under proposed") true
              (is_sound (find_cell id "proposed")))
          [ "mul2-to-add"; "div-hoist-guarded"; "loop-unswitch-freeze"; "gvn-predicate";
            "phi-to-select"; "select-to-branch-freeze"; "select-to-or-freeze-x";
            "select-undef-arm"; "freeze-of-freeze"; "indvar-widen-nsw"; "icmp-add-nsw";
            "reassociate-drop-nsw";
          ]);
    Alcotest.test_case "the unfixed transformations stay broken under proposed" `Quick (fun () ->
        List.iter
          (fun id ->
            Alcotest.(check bool) (id ^ " unsound under proposed") true
              (is_unsound (find_cell id "proposed")))
          [ "loop-unswitch-raw"; "select-to-branch"; "select-to-or"; "freeze-duplication";
            "indvar-widen-wrapping"; "icmp-add-wrapping"; "reassociate-keep-nsw";
          ]);
    Alcotest.test_case "paper prose vs checker: freezing %c does not fix select->or" `Quick
      (fun () ->
        Alcotest.(check bool) "freeze-c still unsound" true
          (is_unsound (find_cell "select-to-or-freeze-c" "proposed"));
        Alcotest.(check bool) "freeze-x is the fix" true
          (is_sound (find_cell "select-to-or-freeze-x" "proposed")));
    Alcotest.test_case "counterexamples mention poison or undef" `Quick (fun () ->
        match (find_cell "mul2-to-add" "old-unswitch").Matrix.verdict with
        | Checker.Counterexample { args; _ } ->
          Alcotest.(check bool) "undef argument in cex" true
            (List.exists
               (fun v -> v = Ub_sem.Value.Scalar Ub_sem.Value.Undef)
               args)
        | v -> Alcotest.failf "expected cex, got %s" (Checker.verdict_to_string v));
  ]

let () =
  Alcotest.run "matrix"
    [ ("cell-agreement", agreement_tests); ("headline-claims", headline_tests) ]
