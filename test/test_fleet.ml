(* The fleet layer: consistent-hash ring properties, fleet spec
   parsing, cross-shard stats aggregation, and a live 2-shard fleet
   driven through the failover client -- including a SIGKILL of one
   shard mid-burst, after which every query must still be answered (or
   error-accounted), never hung, and never answered differently. *)

module Ring = Ub_serve.Ring
module Fleet = Ub_serve.Fleet
module Client = Ub_serve.Client
module Wire = Ub_serve.Wire
module Json = Ub_serve.Json

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let ring_tests =
  [ Alcotest.test_case "routing is deterministic across ring instances" `Quick (fun () ->
        let names = [ "a"; "b"; "c"; "d" ] in
        let r1 = Ring.make names and r2 = Ring.make names in
        List.iter
          (fun k ->
            Alcotest.(check int) (k ^ " routes identically") (Ring.route r1 k)
              (Ring.route r2 k))
          (keys 200));
    Alcotest.test_case "virtual nodes balance the load" `Quick (fun () ->
        let shards = 4 and n = 4000 in
        let r = Ring.make [ "a"; "b"; "c"; "d" ] in
        let counts = Array.make shards 0 in
        List.iter (fun k -> counts.(Ring.route r k) <- counts.(Ring.route r k) + 1) (keys n);
        Array.iteri
          (fun i c ->
            (* fair share is 1000; 64 vnodes keeps every shard within a
               loose 2x band -- this guards against gross imbalance
               (e.g. modular hashing of a constant prefix), not variance *)
            Alcotest.(check bool)
              (Printf.sprintf "shard %d within [500,2000], got %d" i c)
              true
              (c >= n / 8 && c <= n / 2))
          counts);
    Alcotest.test_case "adding a shard only captures keys, never reshuffles" `Quick
      (fun () ->
        let before = Ring.make [ "a"; "b"; "c"; "d" ] in
        let after = Ring.make [ "a"; "b"; "c"; "d"; "e" ] in
        let moved = ref 0 and total = 500 in
        List.iter
          (fun k ->
            let o = Ring.route before k and n = Ring.route after k in
            if Ring.name before o <> Ring.name after n then begin
              incr moved;
              (* a key may only move to the NEW shard: existing shards
                 never trade keys among themselves *)
              Alcotest.(check string) (k ^ " moved to the added shard") "e"
                (Ring.name after n)
            end)
          (keys total);
        (* ~1/5 of keys should move; anything over half means the ring
           is reshuffling, which would cold-start every shard journal *)
        Alcotest.(check bool)
          (Printf.sprintf "disruption bounded, %d/%d moved" !moved total)
          true
          (!moved > 0 && !moved < total / 2));
    Alcotest.test_case "successors start at the owner and cover all shards" `Quick
      (fun () ->
        let r = Ring.make [ "a"; "b"; "c" ] in
        List.iter
          (fun k ->
            let succ = Ring.successors r k in
            Alcotest.(check int) "covers every shard" 3 (List.length succ);
            Alcotest.(check int) "head is the owner" (Ring.route r k) (List.hd succ);
            let sorted = List.sort_uniq compare succ in
            Alcotest.(check int) "all distinct" 3 (List.length sorted))
          (keys 50));
  ]

(* ------------------------------------------------------------------ *)
(* Fleet spec parsing                                                  *)
(* ------------------------------------------------------------------ *)

let spec_tests =
  [ Alcotest.test_case "comma-separated socket lists parse" `Quick (fun () ->
        match Fleet.sockets_of_spec "/tmp/a.sock,/tmp/b.sock" with
        | Ok s -> Alcotest.(check (list string)) "both sockets" [ "/tmp/a.sock"; "/tmp/b.sock" ] s
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "empty specs are rejected" `Quick (fun () ->
        match Fleet.sockets_of_spec "," with
        | Ok _ -> Alcotest.fail "empty spec accepted"
        | Error _ -> ());
    Alcotest.test_case "fleet.json specs parse" `Quick (fun () ->
        let dir = Filename.temp_file "ub_fleet_spec" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () ->
            ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
          (fun () ->
            let oc = open_out (Filename.concat dir "fleet.json") in
            output_string oc
              {|{"schema":"ubc-fleet-v1","shards":[{"name":"shard-0","socket":"/x/shard-0.sock"},{"name":"shard-1","socket":"/x/shard-1.sock"}]}|};
            close_out oc;
            (* by directory *)
            (match Fleet.sockets_of_spec dir with
            | Ok s ->
              Alcotest.(check (list string)) "dir spec" [ "/x/shard-0.sock"; "/x/shard-1.sock" ] s
            | Error e -> Alcotest.fail e);
            (* by explicit .json path *)
            match Fleet.sockets_of_spec (Filename.concat dir "fleet.json") with
            | Ok s ->
              Alcotest.(check (list string)) "json spec" [ "/x/shard-0.sock"; "/x/shard-1.sock" ] s
            | Error e -> Alcotest.fail e));
  ]

(* ------------------------------------------------------------------ *)
(* Stats aggregation                                                   *)
(* ------------------------------------------------------------------ *)

let mk_stats ~served ~hits ~misses ~verdicts report : Wire.stats_reply =
  { Wire.queue_depth = 0;
    queue_limit = 64;
    uptime_s = 1.0;
    served;
    coalesced_total = 2;
    rejected = 1;
    timeouts = 0;
    cache_hit_rate = 0.0;
    cache_hits = hits;
    cache_misses = misses;
    server = "s";
    verdicts;
    report;
  }

let report_of_counters kvs =
  Json.Obj
    [ ("schema", Json.Str "ubc-obs-report-v1");
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs));
      ( "spans",
        Json.Obj
          [ ( "serve.batch",
              Json.Obj
                [ ("count", Json.Num 2.0); ("total_s", Json.Num 1.0); ("max_s", Json.Num 0.75) ]
            );
          ] );
    ]

let num_of j path =
  match Option.bind (Json.member path j) Json.to_num with
  | Some v -> v
  | None -> Alcotest.fail ("missing field " ^ path)

let stats_tests =
  [ Alcotest.test_case "merge_stats sums load metrics and verdict tallies" `Quick (fun () ->
        let a =
          mk_stats ~served:10 ~hits:4 ~misses:6 ~verdicts:[ ("refines", 8); ("unknown", 2) ]
            (report_of_counters [ ("serve.requests", 12.0) ])
        in
        let b =
          mk_stats ~served:5 ~hits:1 ~misses:4
            ~verdicts:[ ("refines", 3); ("counterexample", 2) ]
            (report_of_counters [ ("serve.requests", 7.0) ])
        in
        let j = Fleet.merge_stats [ ("shard-0", a); ("shard-1", b) ] in
        Alcotest.(check string) "schema" "ubc-fleet-stats-v1"
          (Option.value ~default:"" (Json.str_field j "schema"));
        Alcotest.(check (float 0.001)) "served sums" 15.0 (num_of j "served");
        Alcotest.(check (float 0.001)) "coalesced sums" 4.0 (num_of j "coalesced");
        Alcotest.(check (float 0.001)) "cache_hits sums" 5.0 (num_of j "cache_hits");
        Alcotest.(check (float 0.001)) "hit rate derived from sums" (5.0 /. 15.0)
          (num_of j "cache_hit_rate");
        let verdicts = Option.get (Json.member "verdicts" j) in
        Alcotest.(check (float 0.001)) "refines tally" 11.0 (num_of verdicts "refines");
        Alcotest.(check (float 0.001)) "counterexample tally" 2.0
          (num_of verdicts "counterexample");
        (* the merged obs report sums counters and keeps span maxima *)
        let report = Option.get (Json.member "report" j) in
        Alcotest.(check string) "merged report schema" "ubc-obs-report-fleet-v1"
          (Option.value ~default:"" (Json.str_field report "schema"));
        let counters = Option.get (Json.member "counters" report) in
        Alcotest.(check (float 0.001)) "counters sum" 19.0 (num_of counters "serve.requests");
        let spans = Option.get (Json.member "spans" report) in
        let batch = Option.get (Json.member "serve.batch" spans) in
        Alcotest.(check (float 0.001)) "span count sums" 4.0 (num_of batch "count");
        Alcotest.(check (float 0.001)) "span max is max" 0.75 (num_of batch "max_s");
        (* per-shard blocks survive aggregation *)
        let shards = Option.get (Json.member "shards" j) in
        Alcotest.(check bool) "per-shard blocks present" true
          (Json.member "shard-0" shards <> None && Json.member "shard-1" shards <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Live 2-shard fleet                                                  *)
(* ------------------------------------------------------------------ *)

let with_fleet ?(shards = 2) ?(queue_limit = 64) k =
  let dir = Filename.temp_file "ub_fleet_test" "" in
  Sys.remove dir;
  let cfg =
    { (Fleet.default_config ~dir) with Fleet.shards; queue_limit; batch_max = 16 }
  in
  let h = Fleet.spawn_local cfg in
  Fun.protect
    ~finally:(fun () ->
      Fleet.stop_local h;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> k h)

let src_fn i = Printf.sprintf "define i8 @q%03d(i8 %%x) {\ne:\n  ret i8 %%x\n}" i
let tgt_zero i = Printf.sprintf "define i8 @q%03d(i8 %%x) {\ne:\n  ret i8 0\n}" i

let expect_verdict label want = function
  | Wire.Verdict v, _ -> Alcotest.(check string) label want v.Wire.verdict
  | Wire.Error_r { message; _ }, _ -> Alcotest.fail (label ^ ": error " ^ message)
  | _ -> Alcotest.fail (label ^ ": unexpected reply")

let fleet_tests =
  [ Alcotest.test_case "hello handshake echoes the shard tuning" `Quick (fun () ->
        with_fleet ~queue_limit:48 (fun h ->
            List.iter
              (fun socket_path ->
                let cl = Client.connect ~socket_path () in
                Fun.protect
                  ~finally:(fun () -> Client.close cl)
                  (fun () ->
                    Alcotest.(check int) "queue limit echoed" 48 cl.Client.queue_limit;
                    Alcotest.(check bool) "shard name in server string" true
                      (String.length cl.Client.server > 0)))
              (Fleet.handle_sockets h)));
    Alcotest.test_case "batch routes across shards with correct verdicts" `Quick (fun () ->
        with_fleet (fun h ->
            let fl = Client.Fleet.make (Fleet.handle_sockets h) in
            Fun.protect
              ~finally:(fun () -> Client.Fleet.close fl)
              (fun () ->
                (* mixed corpus: even = identity (refines), odd = zeroing
                   (counterexample); distinct names spread over the ring *)
                let n = 24 in
                let pairs =
                  Array.init n (fun i ->
                      if i mod 2 = 0 then (src_fn i, src_fn i) else (src_fn i, tgt_zero i))
                in
                let replies =
                  Client.Fleet.check_batch_tagged fl ~mode:"proposed" pairs
                in
                Array.iteri
                  (fun i rt ->
                    expect_verdict
                      (Printf.sprintf "query %d" i)
                      (if i mod 2 = 0 then "refines" else "counterexample")
                      rt)
                  replies;
                (* both shards served work: the tags name >1 shard *)
                let tags =
                  Array.to_list replies |> List.map snd |> List.sort_uniq compare
                in
                Alcotest.(check bool)
                  ("both shards answered: " ^ String.concat "," tags)
                  true
                  (List.length tags >= 2);
                (* routing is stable: the same query re-routes to the
                   same shard *)
                let s1 =
                  Client.Fleet.shard_of fl ~mode:"proposed" ~src:(src_fn 0) ~tgt:(src_fn 0) ()
                in
                let s2 =
                  Client.Fleet.shard_of fl ~mode:"proposed" ~src:(src_fn 0) ~tgt:(src_fn 0) ()
                in
                Alcotest.(check int) "stable routing" s1 s2)));
    Alcotest.test_case "SIGKILL of a shard mid-burst: failover answers everything" `Quick
      (fun () ->
        with_fleet (fun h ->
            let sockets = Fleet.handle_sockets h in
            let fl = Client.Fleet.make sockets in
            Fun.protect
              ~finally:(fun () -> Client.Fleet.close fl)
              (fun () ->
                let n = 40 in
                let pairs = Array.init n (fun i -> (src_fn (100 + i), src_fn (100 + i))) in
                (* killer child: murder shard 0 shortly after the burst
                   starts, while its window is full of in-flight work *)
                flush stdout;
                flush stderr;
                let killer =
                  match Unix.fork () with
                  | 0 ->
                    (* raw SIGKILL only: the shard is the *parent's*
                       child, so reaping is the parent's job; any
                       exception here must not leak the test framework
                       out of the fork *)
                    (try
                       Unix.sleepf 0.15;
                       Unix.kill h.Fleet.h_pids.(0) Sys.sigkill
                     with _ -> ());
                    Unix._exit 0
                  | pid -> pid
                in
                let replies =
                  Client.Fleet.check_batch_tagged fl ~deadline_s:30.0 ~mode:"proposed" pairs
                in
                (let rec reap () =
                   try ignore (Unix.waitpid [] killer)
                   with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
                 in
                 reap ());
                (* completed-or-accounted: every slot holds a reply, and
                   any verdict that did arrive is the right one -- a
                   failover must never flip a verdict *)
                Alcotest.(check int) "every query has a reply" n (Array.length replies);
                let answered = ref 0 and errored = ref 0 in
                Array.iteri
                  (fun i rt ->
                    match rt with
                    | Wire.Verdict v, _ ->
                      incr answered;
                      Alcotest.(check string)
                        (Printf.sprintf "query %d verdict" i)
                        "refines" v.Wire.verdict
                    | Wire.Error_r _, tag ->
                      (* accounted, with the failing side named *)
                      incr errored;
                      Alcotest.(check bool) "error carries a tag" true (String.length tag > 0)
                    | _ -> Alcotest.fail (Printf.sprintf "query %d: unexpected reply" i))
                  replies;
                Alcotest.(check int) "answered + accounted = all" n (!answered + !errored);
                (* the surviving shard must have absorbed the reroutes:
                   a kill mid-burst may strand at most the queries that
                   exhausted their attempts during the window, never the
                   majority *)
                Alcotest.(check bool)
                  (Printf.sprintf "most queries answered (%d/%d)" !answered n)
                  true
                  (!answered >= n / 2))));
    Alcotest.test_case "shards share one journal: any shard answers every key" `Quick
      (fun () ->
        with_fleet (fun h ->
            let sockets = Fleet.handle_sockets h in
            (* seed distinct work through the router so each shard
               checks and stores its own slice *)
            let fl = Client.Fleet.make sockets in
            let n = 12 in
            let pairs = Array.init n (fun i -> (src_fn (200 + i), src_fn (200 + i))) in
            let replies = Client.Fleet.check_batch_tagged fl ~mode:"proposed" pairs in
            Array.iteri
              (fun i rt -> expect_verdict (Printf.sprintf "seed %d" i) "refines" rt)
              replies;
            Client.Fleet.close fl;
            (* every key must be answerable by EVERY shard straight from
               the shared journal: ask each shard directly, bypassing
               the ring *)
            List.iter
              (fun socket_path ->
                let cl = Client.connect ~socket_path () in
                Fun.protect
                  ~finally:(fun () -> Client.close cl)
                  (fun () ->
                    for i = 0 to n - 1 do
                      let src, tgt = pairs.(i) in
                      match Client.check cl ~mode:"proposed" ~src ~tgt () with
                      | Wire.Verdict v ->
                        Alcotest.(check string)
                          (Printf.sprintf "%s answers key %d" socket_path i)
                          "refines" v.Wire.verdict;
                        Alcotest.(check bool)
                          (Printf.sprintf "%s served key %d from the journal" socket_path i)
                          true v.Wire.cached
                      | _ -> Alcotest.fail "unexpected reply"
                    done))
              sockets));
  ]

let () =
  Alcotest.run "fleet"
    [ ("ring", ring_tests); ("spec", spec_tests); ("stats", stats_tests);
      ("fleet", fleet_tests);
    ]
