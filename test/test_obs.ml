(* Tests for the observability layer (lib/obs): span aggregation and
   nesting, counters, histograms, the JSONL trace sink, the fork-safe
   drain/absorb round-trip, and a smoke check that the default Null sink
   stays cheap. *)

module Obs = Ub_obs.Obs
module Json = Ub_obs.Json

let parse text =
  match Json.of_string text with Ok j -> j | Error e -> Alcotest.failf "bad JSON %S: %s" text e

(* [path] is a list of object keys from the root. *)
let rec field j = function
  | [] -> j
  | k :: rest -> (
    match Json.member k j with Some v -> field v rest | None -> Alcotest.failf "no field %s" k)

let int_at j path =
  match Json.to_int (field j path) with
  | Some n -> n
  | None -> Alcotest.failf "%s is not an integer" (String.concat "." path)

let num_at j path = Option.get (Json.to_num (field j path))

(* The run report as a reader of the file sees it: printed, then parsed. *)
let printed_report () = parse (Json.to_string (Obs.report ()))

let with_clean_registry f =
  Obs.reset ();
  Obs.set_sink Obs.Null;
  Fun.protect ~finally:(fun () -> Obs.reset (); Obs.set_sink Obs.Null) f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_clean_registry @@ fun () ->
  let buf = ref [] in
  Obs.set_sink (Obs.Memory buf);
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span "inner" (fun () -> Unix.sleepf 0.002);
        Obs.with_span "inner" (fun () -> ());
        42)
  in
  Alcotest.(check int) "with_span returns the body's result" 42 r;
  (* Memory sinks record newest-first; completion order is inner, inner,
     outer. *)
  let events = List.rev !buf in
  let names = List.map (fun e -> e.Obs.name) events in
  Alcotest.(check (list string)) "completion order" [ "inner"; "inner"; "outer" ] names;
  let depth_of n =
    (List.find (fun e -> e.Obs.name = n) events).Obs.depth
  in
  Alcotest.(check int) "outer depth" 0 (depth_of "outer");
  Alcotest.(check int) "inner depth" 1 (depth_of "inner");
  List.iter
    (fun e -> Alcotest.(check bool) ("duration recorded: " ^ e.Obs.name) true (e.Obs.dur_ns >= 0))
    events

let test_span_aggregation () =
  with_clean_registry @@ fun () ->
  for _ = 1 to 5 do
    Obs.with_span "agg" (fun () -> ())
  done;
  Alcotest.(check int) "span in report" 5 (int_at (printed_report ()) [ "spans"; "agg"; "count" ])

let test_span_survives_raise () =
  with_clean_registry @@ fun () ->
  (try Obs.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Obs.with_span "after" (fun () -> ());
  (* depth must be back to 0: the "after" span records depth 0 events *)
  let buf = ref [] in
  Obs.set_sink (Obs.Memory buf);
  Obs.with_span "probe" (fun () -> ());
  match !buf with
  | [ e ] -> Alcotest.(check int) "depth restored after raise" 0 e.Obs.depth
  | _ -> Alcotest.fail "expected exactly one probe event"

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  with_clean_registry @@ fun () ->
  Obs.count "c";
  Obs.count ~by:4 "c";
  Obs.count "other";
  Alcotest.(check int) "accumulated" 5 (Obs.counter_value "c");
  Alcotest.(check int) "independent" 1 (Obs.counter_value "other");
  Alcotest.(check int) "absent reads 0" 0 (Obs.counter_value "nope")

let test_histograms () =
  with_clean_registry @@ fun () ->
  List.iter (Obs.observe "h") [ 1.0; 2.0; 4.0; 8.0; 1024.0 ];
  let h = field (printed_report ()) [ "histograms"; "h" ] in
  Alcotest.(check int) "count" 5 (int_at h [ "count" ]);
  Alcotest.(check (float 0.0)) "sum" 1039.0 (num_at h [ "sum" ]);
  Alcotest.(check (float 0.0)) "min" 1.0 (num_at h [ "min" ]);
  Alcotest.(check (float 0.0)) "max" 1024.0 (num_at h [ "max" ])

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  with_clean_registry @@ fun () ->
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.set_trace path;
  Obs.with_span "s" ~attrs:[ ("mode", Obs.S "weird \"name\"\n"); ("n", Obs.I 3) ] (fun () -> ());
  Obs.event "e" ~attrs:[ ("ok", Obs.B true); ("x", Obs.F 1.5) ];
  Obs.close ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "two trace lines" 2 (List.length lines);
  let span = parse (List.nth lines 0) and event = parse (List.nth lines 1) in
  let str j k = Json.str_field j k in
  Alcotest.(check (option string)) "span kind" (Some "span") (str span "ev");
  Alcotest.(check (option string)) "escaped attr" (Some "weird \"name\"\n") (str span "mode");
  Alcotest.(check (option int)) "int attr" (Some 3) (Json.int_field span "n");
  Alcotest.(check (option string)) "event kind" (Some "event") (str event "ev");
  Alcotest.(check (option bool)) "bool attr" (Some true) (Json.bool_field event "ok");
  Alcotest.(check (option (float 0.0))) "float attr" (Some 1.5) (Json.num_field event "x");
  Alcotest.(check bool) "no dur on events" true (Json.member "dur_ns" event = None)

(* Every byte of a string attr survives print and parse, and the event's
   integer fields read back as integers, not as rounded floats. *)
let test_event_roundtrip () =
  let text = "say \"hi\"\nbell \007 tab\t caf\xc3\xa9 \xe2\x88\x80x" in
  let e =
    { Obs.ev = "span"; name = "n"; t_ns = 4_503_599_627_370_497; dur_ns = 42_670; depth = 3;
      attrs = [ ("s", Obs.S text) ] }
  in
  let j = parse (Obs.event_to_json e) in
  Alcotest.(check (option string)) "string attr" (Some text) (Json.str_field j "s");
  Alcotest.(check int) "t_ns" e.Obs.t_ns (int_at j [ "t_ns" ]);
  Alcotest.(check int) "dur_ns" 42_670 (int_at j [ "dur_ns" ]);
  Alcotest.(check int) "depth" 3 (int_at j [ "depth" ])

(* ------------------------------------------------------------------ *)
(* drain/absorb (the fork-forwarding path, without the fork)           *)
(* ------------------------------------------------------------------ *)

let test_drain_absorb () =
  with_clean_registry @@ fun () ->
  (* simulate the child *)
  Obs.child_begin ();
  Obs.count ~by:3 "pool.task_done";
  Obs.observe "lat" 2.0;
  Obs.observe "lat" 8.0;
  Obs.with_span "work" (fun () -> ());
  Obs.event "tick";
  let p = Obs.drain () in
  Alcotest.(check int) "drain clears counters" 0 (Obs.counter_value "pool.task_done");
  (* simulate the parent *)
  Obs.reset ();
  Obs.set_sink Obs.Null;
  Obs.count "pool.task_done";
  Obs.absorb p ~attrs:[ ("shard", Obs.I 7) ];
  Alcotest.(check int) "counters folded in" 4 (Obs.counter_value "pool.task_done");
  Alcotest.(check int) "event counts folded in" 1 (Obs.counter_value "tick");
  let r = printed_report () in
  Alcotest.(check int) "hist merged" 2 (int_at r [ "histograms"; "lat"; "count" ]);
  Alcotest.(check (float 0.0)) "hist sum merged" 10.0 (num_at r [ "histograms"; "lat"; "sum" ]);
  Alcotest.(check int) "span merged" 1 (int_at r [ "spans"; "work"; "count" ])

(* ------------------------------------------------------------------ *)
(* Null-sink overhead smoke                                            *)
(* ------------------------------------------------------------------ *)

(* Not a benchmark — just a guard that with_span on the Null sink stays
   in the no-I/O regime (two clock reads + a hashtable bump).  A
   regression to per-span I/O or formatting would blow way past this. *)
let test_noop_overhead () =
  with_clean_registry @@ fun () ->
  let n = 100_000 in
  let t0 = Obs.Clock.now_s () in
  for _ = 1 to n do
    Obs.with_span "hot" (fun () -> ())
  done;
  let dt = Obs.Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool)
    (Printf.sprintf "100k no-op spans under 250ms (took %.1fms)" (dt *. 1e3))
    true (dt < 0.25)

let test_report_parses () =
  with_clean_registry @@ fun () ->
  Obs.count "verdict_cache.hit";
  Obs.count "verdict_cache.miss";
  let r = printed_report () in
  Alcotest.(check (option string)) "schema tag" (Some "ubc-obs-report-v1") (Json.str_field r "schema");
  Alcotest.(check int) "counters are integers" 1 (int_at r [ "counters"; "verdict_cache.hit" ]);
  Alcotest.(check (float 0.0)) "derived hit rate" 0.5 (num_at r [ "derived"; "verdict_cache_hit_rate" ]);
  Alcotest.(check int) "derived lookups" 2 (int_at r [ "derived"; "verdict_cache_lookups" ])

let () =
  Alcotest.run "obs"
    [ ( "spans",
        [ Alcotest.test_case "nesting depths and completion order" `Quick test_span_nesting;
          Alcotest.test_case "aggregation counts every call" `Quick test_span_aggregation;
          Alcotest.test_case "depth restored when the body raises" `Quick test_span_survives_raise;
        ] );
      ( "metrics",
        [ Alcotest.test_case "counters accumulate" `Quick test_counters;
          Alcotest.test_case "histogram summary stats" `Quick test_histograms;
        ] );
      ( "trace",
        [ Alcotest.test_case "JSONL sink round-trips events" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "escaped attrs and integer fields read back unchanged" `Quick
            test_event_roundtrip;
        ] );
      ( "forwarding",
        [ Alcotest.test_case "drain/absorb merges child telemetry" `Quick test_drain_absorb ] );
      ( "overhead",
        [ Alcotest.test_case "null sink stays cheap" `Quick test_noop_overhead;
          Alcotest.test_case "report is well-formed" `Quick test_report_parses;
        ] );
    ]
