(* Round-trip laws over the fuzzed corpus, checked by plain loops over
   fixed seeds: printer/parser round-trip and validator invariance under
   every shrink pass. *)

open Ub_ir
open Ub_fuzz

let corpus = lazy (Gen.random_corpus ~seed:7 ~size:500)

(* Hunt-generator programs with memory and backend shapes: stores,
   selects and phis in every function. *)
let hunt_corpus =
  lazy
    (List.concat_map
       (fun i ->
         let rng = Ub_support.Prng.create ~seed:(100 + i) in
         [ Gen.hunt_func rng ~name:(Printf.sprintf "m%d" i)
             { Gen.default_hunt with Gen.h_mem = true; Gen.h_cfg = true };
           Gen.hunt_func rng ~name:(Printf.sprintf "b%d" i)
             { Gen.default_hunt with Gen.h_backend = true } ])
       (List.init 40 Fun.id))

let roundtrips fn =
  let s = Printer.func_to_string fn in
  Printer.func_to_string (Parser.parse_func_string s) = s

let law_tests =
  [ Alcotest.test_case "printer/parser round-trip over 500 fuzzed functions" `Quick
      (fun () ->
        List.iter
          (fun fn ->
            if not (roundtrips fn) then
              Alcotest.failf "round-trip broke:\n%s" (Printer.func_to_string fn))
          (Lazy.force corpus));
    Alcotest.test_case "every fuzzed function validates" `Quick (fun () ->
        List.iter
          (fun fn ->
            match Validate.check_func fn with
            | [] -> ()
            | errs ->
              Alcotest.failf "invalid corpus function:\n%s\n%s"
                (Printer.func_to_string fn) (String.concat "; " errs))
          (Lazy.force corpus));
    Alcotest.test_case "shrink candidates validate and round-trip (500 functions)"
      `Slow
      (fun () ->
        let checked = ref 0 in
        List.iter
          (fun fn ->
            List.iter
              (fun fn' ->
                incr checked;
                (match Validate.check_func fn' with
                | [] -> ()
                | errs ->
                  Alcotest.failf "shrink produced invalid SSA:\n%s\n%s"
                    (Printer.func_to_string fn') (String.concat "; " errs));
                if not (roundtrips fn') then
                  Alcotest.failf "shrink candidate broke round-trip:\n%s"
                    (Printer.func_to_string fn'))
              (Ub_shrink.Reduce.shrink_candidates fn))
          (Lazy.force corpus);
        Alcotest.(check bool) "some candidates were produced" true (!checked > 1000));
    Alcotest.test_case "structural and printed equality agree on validated candidates"
      `Quick (fun () ->
        (* the reducer's seen-sets key on [Func.equal]; over the
           candidates that validate, that must separate exactly what the
           printed text separates (the printer being a function, equal
           functions print alike; the converse is checked here) *)
        let checked = ref 0 in
        List.iter
          (fun fn ->
            let by_text = Hashtbl.create 64 in
            List.iter
              (fun e ->
                match Ub_shrink.Reduce.apply e fn with
                | Some fn' when Validate.check_func fn' = [] -> (
                  incr checked;
                  let k = Printer.func_to_string fn' in
                  match Hashtbl.find_opt by_text k with
                  | Some g when not (Func.equal g fn') ->
                    Alcotest.failf "candidates print alike but differ:\n%s" k
                  | Some _ -> ()
                  | None -> Hashtbl.replace by_text k fn')
                | Some _ | None | (exception _) -> ())
              (Ub_shrink.Reduce.candidate_edits fn))
          (Ub_support.Util.take 100 (Lazy.force corpus));
        Alcotest.(check bool) "some candidates were compared" true (!checked > 1000));
    Alcotest.test_case "every set-operand candidate puts its operand at its slot and validates"
      `Quick (fun () ->
        let checked = ref 0 in
        List.iter
          (fun fn ->
            List.iter
              (function
                | Ub_shrink.Reduce.Set_operand (l, i, j, by) as e -> (
                  match Ub_shrink.Reduce.apply e fn with
                  | None -> ()
                  | Some fn' ->
                    incr checked;
                    let n = List.nth (Func.find_block_exn fn' l).Func.insns i in
                    if List.nth_opt (Instr.operands n.Instr.ins) j <> Some by then
                      Alcotest.failf "%s did not set operand %d:\n%s"
                        (Ub_shrink.Reduce.edit_to_string e) j (Printer.func_to_string fn');
                    (match Validate.check_func fn' with
                    | [] -> ()
                    | errs ->
                      Alcotest.failf "%s made invalid SSA:\n%s\n%s"
                        (Ub_shrink.Reduce.edit_to_string e) (Printer.func_to_string fn')
                        (String.concat "; " errs)))
                | _ -> ())
              (Ub_shrink.Reduce.candidate_edits fn))
          (Lazy.force corpus @ Lazy.force hunt_corpus);
        Alcotest.(check bool) "some candidates were checked" true (!checked > 1000));
    Alcotest.test_case "every edit family is generated" `Quick (fun () ->
        (* the catalogue on a loopy corpus function must span block-level,
           def-level, operand-level and type-level edits *)
        let fn =
          List.find
            (fun fn -> List.length fn.Func.blocks > 1)
            (Lazy.force corpus)
        in
        let edits = Ub_shrink.Reduce.candidate_edits fn in
        let has p = List.exists p edits in
        Alcotest.(check bool) "drop-block" true
          (has (function Ub_shrink.Reduce.Drop_block _ -> true | _ -> false));
        Alcotest.(check bool) "flatten-cond" true
          (has (function Ub_shrink.Reduce.Flatten_cond _ -> true | _ -> false));
        Alcotest.(check bool) "rauw" true
          (has (function Ub_shrink.Reduce.Rauw _ -> true | _ -> false));
        Alcotest.(check bool) "drop-insn" true
          (has (function Ub_shrink.Reduce.Drop_insn _ -> true | _ -> false));
        Alcotest.(check bool) "strip-flag" true
          (has (function Ub_shrink.Reduce.Strip_flag _ -> true | _ -> false));
        Alcotest.(check bool) "set-operand" true
          (has (function Ub_shrink.Reduce.Set_operand _ -> true | _ -> false));
        Alcotest.(check bool) "narrow" true
          (has (function Ub_shrink.Reduce.Narrow _ -> true | _ -> false));
        Alcotest.(check bool) "frozen-input" true
          (has (function Ub_shrink.Reduce.Rauw_frozen_input _ -> true | _ -> false)));
    Alcotest.test_case "shrink candidates are deterministic" `Quick (fun () ->
        let fn = List.hd (Lazy.force corpus) in
        let run () =
          List.map Printer.func_to_string (Ub_shrink.Reduce.shrink_candidates fn)
        in
        Alcotest.(check bool) "same" true (run () = run ()));
  ]

let () = Alcotest.run "prop" [ ("laws", law_tests) ]
