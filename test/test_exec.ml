(* The exec layer: worker-pool determinism, crash isolation, per-task
   timeouts, and the persistent cache's key/store/find contract. *)

open Ub_exec

let int_results = Array.init 50 (fun i -> i)

let pool_tests =
  [ Alcotest.test_case "parallel map matches sequential" `Quick (fun () ->
        let f x = (x * x) + 1 in
        let seq = Pool.map ~jobs:1 f int_results in
        let par = Pool.map ~jobs:4 f int_results in
        Alcotest.(check bool) "same results" true (seq = par);
        Array.iteri
          (fun i r ->
            match r with
            | Pool.Done v -> Alcotest.(check int) "value" (f i) v
            | _ -> Alcotest.fail "expected Done")
          par);
    Alcotest.test_case "an exception crashes only its own task" `Quick (fun () ->
        let f x = if x = 17 then failwith "boom" else x in
        let rs = Pool.map ~jobs:3 f int_results in
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 17, Pool.Crashed msg ->
              Alcotest.(check bool) "message mentions boom" true
                (Ub_support.Util.string_contains ~needle:"boom" msg)
            | 17, _ -> Alcotest.fail "task 17 should have crashed"
            | _, Pool.Done v -> Alcotest.(check int) "value" i v
            | _, _ -> Alcotest.fail "healthy task lost")
          rs);
    Alcotest.test_case "a dying worker loses only the task it was on" `Quick (fun () ->
        (* SIGKILL is not catchable: this is the segfault/OOM-kill case.
           The pool must respawn and finish the tasks queued behind it. *)
        let f x =
          if x = 5 then begin
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            x
          end
          else x
        in
        let rs = Pool.map ~jobs:2 f (Array.init 20 (fun i -> i)) in
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 5, Pool.Crashed msg ->
              Alcotest.(check bool) "killed by signal" true
                (Ub_support.Util.string_contains ~needle:"signal" msg);
              Alcotest.(check bool) "the signal is named" true
                (Ub_support.Util.string_contains ~needle:"SIGKILL" msg)
            | 5, _ -> Alcotest.fail "task 5 should have crashed"
            | _, Pool.Done v -> Alcotest.(check int) "value" i v
            | _, _ -> Alcotest.failf "task %d lost to the crash" i)
          rs);
    Alcotest.test_case "a slow task times out without killing the worker" `Quick (fun () ->
        let f x = if x = 2 then Unix.sleepf 5.0 else () in
        let rs = Pool.map ~jobs:2 ~timeout_s:0.2 f (Array.init 6 (fun i -> i)) in
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 2, Pool.Timed_out -> ()
            | 2, _ -> Alcotest.fail "task 2 should have timed out"
            | _, Pool.Done () -> ()
            | _, _ -> Alcotest.failf "task %d affected by the timeout" i)
          rs);
    Alcotest.test_case "a worker exiting non-zero surfaces as a crash" `Quick (fun () ->
        (* _exit bypasses every OCaml exception net: the parent must read
           the wait status and pin the crash on the in-flight task. *)
        let f x =
          if x = 7 then Unix._exit 3;
          x
        in
        let rs = Pool.map ~jobs:2 f (Array.init 16 (fun i -> i)) in
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 7, Pool.Crashed msg ->
              Alcotest.(check bool) "message names exit code 3" true
                (Ub_support.Util.string_contains ~needle:"code 3" msg)
            | 7, _ -> Alcotest.fail "task 7 should have crashed"
            | _, Pool.Done v -> Alcotest.(check int) "value" i v
            | _, _ -> Alcotest.failf "task %d lost to the exit" i)
          rs);
    Alcotest.test_case "nested timeouts do not cancel the outer deadline" `Quick (fun () ->
        (* an inner run_task used to zero ITIMER_REAL on its way out,
           silently disarming the enclosing task's timeout *)
        let inner () =
          Pool.map ~jobs:1 ~timeout_s:0.05 (fun x -> x + 1) (Array.init 3 (fun i -> i))
        in
        let outer _ =
          let rs = inner () in
          Array.iter
            (function Pool.Done _ -> () | _ -> Alcotest.fail "inner task failed")
            rs;
          Unix.sleepf 5.0
        in
        let rs = Pool.map ~jobs:1 ~timeout_s:0.4 outer (Array.make 1 ()) in
        (match rs.(0) with
        | Pool.Timed_out -> ()
        | Pool.Done _ -> Alcotest.fail "outer deadline was disarmed by the inner pool"
        | Pool.Crashed m -> Alcotest.failf "outer task crashed: %s" m));
    Alcotest.test_case "a timeout firing at any point stays inside the envelope" `Quick
      (fun () ->
        (* a deadline of a microsecond can fire before the task starts
           or after it returned: either way run_task must answer, never
           let Task_timeout escape to the caller *)
        let work n = Array.fold_left ( + ) 0 (Array.init n (fun i -> i)) in
        for i = 1 to 4000 do
          match Pool.run_task ~timeout_s:1e-6 work (i mod 400 * 25) with
          | Pool.Done _ | Pool.Timed_out -> ()
          | Pool.Crashed m -> Alcotest.failf "crashed: %s" m
        done);
    Alcotest.test_case "a timeout the kernel refuses crashes only its task" `Quick (fun () ->
        let before = Sys.signal Sys.sigalrm Sys.Signal_default in
        Sys.set_signal Sys.sigalrm before;
        List.iter
          (fun s ->
            match Pool.run_task ~timeout_s:s (fun x -> x) 1 with
            | Pool.Crashed _ -> ()
            | _ -> Alcotest.failf "timeout %g must crash the task" s)
          [ -1.0; 1e300 ];
        Alcotest.(check bool) "SIGALRM handler restored" true
          (Sys.signal Sys.sigalrm before == before);
        match Pool.run_task ~timeout_s:0.05 Unix.sleepf 5.0 with
        | Pool.Timed_out -> ()
        | _ -> Alcotest.fail "a valid timeout still fires");
    Alcotest.test_case "stats account for every task" `Quick (fun () ->
        let rs, stats = Pool.map_stats ~jobs:3 (fun x -> x) int_results in
        Alcotest.(check int) "task_count" (Array.length int_results) stats.Pool.task_count;
        Alcotest.(check int) "every task resolved" (Array.length rs)
          (Array.fold_left (fun n r -> match r with Pool.Done _ -> n + 1 | _ -> n) 0 rs);
        Alcotest.(check int) "totals: nothing crashed, timed out or respawned" 0
          (stats.Pool.crashed + stats.Pool.timed_out + stats.Pool.respawns);
        Alcotest.(check int) "jobs" 3 stats.Pool.jobs;
        Alcotest.(check bool) "utilization sane" true
          (stats.Pool.utilization >= 0.0 && stats.Pool.utilization <= 1.01));
    Alcotest.test_case "map_cached runs only the misses and stores only Done" `Quick
      (fun () ->
        (* [find] answers the even inputs; [f] refuses them, so a hit
           that reached the pool would show up as a crash *)
        let xs = Array.init 20 (fun i -> i) in
        let find x = if x mod 2 = 0 then Some (-x) else None in
        let f x =
          if x mod 2 = 0 then failwith "a cached input reached f"
          else if x = 7 then failwith "boom"
          else if x = 9 then (Unix.sleepf 5.0; x)
          else x * x
        in
        let run jobs =
          let stored = ref [] in
          let rs, stats =
            Pool.map_cached ~jobs ~timeout_s:0.2 ~find
              ~store:(fun x v -> stored := (x, v) :: !stored)
              f xs
          in
          (rs, stats, List.rev !stored)
        in
        let rs1, stats1, stored1 = run 1 in
        let rs2, stats2, stored2 = run 2 in
        Alcotest.(check bool) "same results at jobs 1 and 2" true (rs1 = rs2);
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 7, Pool.Crashed msg ->
              Alcotest.(check bool) "the crash is f's own" true
                (Ub_support.Util.string_contains ~needle:"boom" msg)
            | 9, Pool.Timed_out -> ()
            | (7 | 9), _ -> Alcotest.failf "task %d should have failed" i
            | _, Pool.Done v ->
              Alcotest.(check int) "value in input order" (if i mod 2 = 0 then -i else i * i) v
            | _, _ -> Alcotest.failf "task %d lost" i)
          rs1;
        let expected =
          List.filter_map
            (fun x -> if x mod 2 = 1 && x <> 7 && x <> 9 then Some (x, x * x) else None)
            (Array.to_list xs)
        in
        List.iter
          (fun stored ->
            Alcotest.(check (list (pair int int))) "store sees exactly the Done misses"
              expected stored)
          [ stored1; stored2 ];
        List.iter
          (fun (s : Pool.stats) ->
            Alcotest.(check int) "stats count only the misses" 10 s.Pool.task_count;
            Alcotest.(check int) "one crash" 1 s.Pool.crashed;
            Alcotest.(check int) "one timeout" 1 s.Pool.timed_out)
          [ stats1; stats2 ]);
    Alcotest.test_case "map_cached asks again for a crashed or timed-out miss" `Quick
      (fun () ->
        (* a table as the cache: the first call crashes on 3 and times
           out on 5, so only those two are missing from it afterwards
           and the second call runs exactly them *)
        List.iter
          (fun jobs ->
            let table = Hashtbl.create 16 in
            let run f =
              Pool.map_cached ~jobs ~timeout_s:0.2 ~find:(Hashtbl.find_opt table)
                ~store:(Hashtbl.replace table) f (Array.init 8 Fun.id)
            in
            let _, first =
              run (fun x ->
                  if x = 3 then failwith "boom"
                  else if x = 5 then (Unix.sleepf 5.0; x)
                  else x)
            in
            Alcotest.(check (pair int int)) "first call: one crash, one timeout" (1, 1)
              (first.Pool.crashed, first.Pool.timed_out);
            Alcotest.(check (list int)) "neither failure was stored" [ 0; 1; 2; 4; 6; 7 ]
              (List.sort compare (List.of_seq (Hashtbl.to_seq_keys table)));
            let rs, second = run (fun x -> 100 + x) in
            Alcotest.(check int) "second call runs only the two failures" 2
              second.Pool.task_count;
            Alcotest.(check bool) "every result now done, in input order" true
              (rs = Array.init 8 (fun i -> Pool.Done (if i = 3 || i = 5 then 100 + i else i)));
            Alcotest.(check int) "and both are stored" 8 (Hashtbl.length table))
          [ 1; 2 ]);
    Alcotest.test_case "worker telemetry is forwarded to the parent" `Quick (fun () ->
        let module Obs = Ub_obs.Obs in
        Obs.reset ();
        ignore (Pool.map ~jobs:3 (fun x -> x * 2) (Array.init 30 (fun i -> i)));
        Alcotest.(check int) "task_done aggregated across workers" 30
          (Obs.counter_value "pool.task_done");
        Alcotest.(check int) "dispatch events counted" 30
          (Obs.counter_value "pool.task_dispatch");
        Obs.reset ();
        let g x =
          if x = 5 then Unix.kill (Unix.getpid ()) Sys.sigkill;
          x
        in
        ignore (Pool.map ~jobs:2 g (Array.init 10 (fun i -> i)));
        Alcotest.(check int) "worker_crash event emitted" 1
          (Obs.counter_value "pool.worker_crash");
        Alcotest.(check int) "crashed task counted by the parent" 1
          (Obs.counter_value "pool.task_crashed");
        Obs.reset ());
  ]

let with_tmp_cache k =
  let dir = Filename.temp_file "ub_cache_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> k (Cache.open_journal dir))

let cache_tests =
  [ Alcotest.test_case "store/find roundtrip" `Quick (fun () ->
        with_tmp_cache (fun c ->
            let k = Cache.key ~parts:[ "src"; "tgt"; "mode"; "kind" ] in
            Alcotest.(check (option string)) "miss before store" None (Cache.find c k);
            Cache.store c k "verdict-bytes";
            Alcotest.(check (option string)) "hit after store" (Some "verdict-bytes")
              (Cache.find c k)));
    Alcotest.test_case "keys are injective on part boundaries" `Quick (fun () ->
        Alcotest.(check bool) "ab|c vs a|bc" false
          (Cache.key ~parts:[ "ab"; "c" ] = Cache.key ~parts:[ "a"; "bc" ]);
        Alcotest.(check bool) "same parts same key" true
          (Cache.key ~parts:[ "x"; "y" ] = Cache.key ~parts:[ "x"; "y" ]));
  ]

(* the journal: single-file append log, fcntl-locked appends,
   compaction behind an atomic rename, safe under concurrent writers
   from several processes *)

let with_tmp_journal k =
  let dir = Filename.temp_file "ub_journal_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> k dir)

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let journal_tests =
  [ Alcotest.test_case "store/find roundtrip and persistence" `Quick (fun () ->
        with_tmp_journal (fun dir ->
            let c = Cache.open_journal dir in
            let k = Cache.key ~parts:[ "a"; "b" ] in
            Alcotest.(check (option string)) "miss first" None (Cache.find c k);
            Cache.store c k "v1";
            Cache.store c k "v2" (* overwrite: last append wins *);
            Alcotest.(check (option string)) "overwritten" (Some "v2") (Cache.find c k);
            Cache.close c;
            let c2 = Cache.open_journal dir in
            Alcotest.(check (option string)) "fresh handle replays" (Some "v2")
              (Cache.find c2 k);
            Cache.close c2));
    Alcotest.test_case "another process's appends become visible" `Quick (fun () ->
        with_tmp_journal (fun dir ->
            let c = Cache.open_journal dir in
            Cache.store c (Cache.key ~parts:[ "mine" ]) "here";
            flush stdout;
            flush stderr;
            (match Unix.fork () with
            | 0 ->
              let child = Cache.open_journal dir in
              Cache.store child (Cache.key ~parts:[ "theirs" ]) "there";
              Cache.close child;
              Unix._exit 0
            | pid -> waitpid_retry pid);
            (* a miss triggers a tail refresh of the shared journal *)
            Alcotest.(check (option string)) "foreign append visible" (Some "there")
              (Cache.find c (Cache.key ~parts:[ "theirs" ]));
            Cache.close c));
    Alcotest.test_case "concurrent multi-process writers lose nothing" `Quick (fun () ->
        with_tmp_journal (fun dir ->
            let n_procs = 4 and n_keys = 50 in
            flush stdout;
            flush stderr;
            let pids =
              List.init n_procs (fun p ->
                  match Unix.fork () with
                  | 0 ->
                    let c = Cache.open_journal dir in
                    for i = 0 to n_keys - 1 do
                      Cache.store c
                        (Cache.key ~parts:[ string_of_int p; string_of_int i ])
                        (Printf.sprintf "%d-%d" p i)
                    done;
                    Cache.close c;
                    Unix._exit 0
                  | pid -> pid)
            in
            List.iter waitpid_retry pids;
            let c = Cache.open_journal dir in
            for p = 0 to n_procs - 1 do
              for i = 0 to n_keys - 1 do
                Alcotest.(check (option string))
                  (Printf.sprintf "key %d-%d survived the races" p i)
                  (Some (Printf.sprintf "%d-%d" p i))
                  (Cache.find c (Cache.key ~parts:[ string_of_int p; string_of_int i ]))
              done
            done;
            Cache.close c));
    Alcotest.test_case "compaction drops dead bytes, keeps every live entry" `Quick
      (fun () ->
        with_tmp_journal (fun dir ->
            let c = Cache.open_journal dir in
            let k = Cache.key ~parts:[ "hot" ] in
            for i = 0 to 99 do
              Cache.store c k (string_of_int i)
            done;
            Cache.store c (Cache.key ~parts:[ "cold" ]) "kept";
            let before = Cache.journal_size c in
            Cache.compact c;
            let after = Cache.journal_size c in
            Alcotest.(check bool) "journal shrank" true (after < before);
            Alcotest.(check (option string)) "hot key survives" (Some "99") (Cache.find c k);
            Alcotest.(check (option string)) "cold key survives" (Some "kept")
              (Cache.find c (Cache.key ~parts:[ "cold" ]));
            Cache.close c;
            let c2 = Cache.open_journal dir in
            Alcotest.(check (option string)) "compacted file replays" (Some "99")
              (Cache.find c2 k);
            Cache.close c2));
    Alcotest.test_case "compaction races a live writer without losing appends" `Quick
      (fun () ->
        with_tmp_journal (fun dir ->
            let n_keys = 100 in
            flush stdout;
            flush stderr;
            let writer =
              match Unix.fork () with
              | 0 ->
                let c = Cache.open_journal dir in
                for i = 0 to n_keys - 1 do
                  Cache.store c (Cache.key ~parts:[ "w"; string_of_int i ]) (string_of_int i)
                done;
                Cache.close c;
                Unix._exit 0
              | pid -> pid
            in
            let c = Cache.open_journal dir in
            for _ = 1 to 25 do
              Cache.store c (Cache.key ~parts:[ "churn" ]) "x";
              Cache.compact c
            done;
            waitpid_retry writer;
            let fresh = Cache.open_journal dir in
            for i = 0 to n_keys - 1 do
              Alcotest.(check (option string))
                (Printf.sprintf "writer key %d survived compaction" i)
                (Some (string_of_int i))
                (Cache.find fresh (Cache.key ~parts:[ "w"; string_of_int i ]))
            done;
            Cache.close c;
            Cache.close fresh));
    Alcotest.test_case "a handle's inode is the file its writer appends to" `Quick (fun () ->
        (* A compaction renames a new file over the journal.  If it lands
           between [open_journal]'s open of the writer and the moment it
           takes [ino], the handle must still record the writer's file,
           or [refresh] never reopens the writer and its appends go to
           the unlinked old journal. *)
        with_tmp_journal (fun dir ->
            let seed = Cache.open_journal dir in
            Cache.store seed (Cache.key ~parts:[ "seed" ]) "x";
            Cache.close seed;
            flush stdout;
            flush stderr;
            let compactor =
              match Unix.fork () with
              | 0 ->
                let c = Cache.open_journal dir in
                while true do
                  Cache.store c (Cache.key ~parts:[ "churn" ]) "x";
                  Cache.compact c
                done;
                Unix._exit 0
              | pid -> pid
            in
            let mismatches = ref 0 in
            Fun.protect
              ~finally:(fun () ->
                Unix.kill compactor Sys.sigkill;
                waitpid_retry compactor)
              (fun () ->
                for _ = 1 to 20_000 do
                  let c = Cache.open_journal dir in
                  if c.Cache.ino <> (Unix.fstat c.Cache.wfd).Unix.st_ino then incr mismatches;
                  Cache.close c
                done);
            Alcotest.(check int) "handles whose inode is not their writer's" 0 !mismatches));
    Alcotest.test_case "a torn tail is tolerated, intact prefix survives" `Quick (fun () ->
        with_tmp_journal (fun dir ->
            let c = Cache.open_journal dir in
            Cache.store c (Cache.key ~parts:[ "ok" ]) "fine";
            Cache.close c;
            (* simulate a crash mid-append: half a record at the tail *)
            let jpath = Filename.concat dir "journal.bin" in
            let fd = Unix.openfile jpath [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
            ignore (Unix.write fd (Bytes.of_string "\x00\x00\x00\x10par") 0 7);
            Unix.close fd;
            let c2 = Cache.open_journal dir in
            Alcotest.(check (option string)) "prefix intact" (Some "fine")
              (Cache.find c2 (Cache.key ~parts:[ "ok" ]));
            (* a store after the tear must not land behind the torn bytes *)
            Cache.store c2 (Cache.key ~parts:[ "after" ]) "2";
            Cache.close c2;
            let c3 = Cache.open_journal dir in
            Alcotest.(check (option string)) "later store survives reopen" (Some "2")
              (Cache.find c3 (Cache.key ~parts:[ "after" ]));
            Cache.close c3;
            (* and another process sees it: exit code 0 = found *)
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
              let child = Cache.open_journal dir in
              let found = Cache.find child (Cache.key ~parts:[ "after" ]) = Some "2" in
              Unix._exit (if found then 0 else 1)
            | pid ->
              let rec wait () =
                try snd (Unix.waitpid [] pid)
                with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
              in
              Alcotest.(check bool) "a forked reader sees the later store" true
                (wait () = Unix.WEXITED 0)));
  ]

module Obs = Ub_obs.Obs

(* the verdict cache: decisive verdicts roundtrip, unknowns are skipped *)
let verdict_tests =
  [ Alcotest.test_case "decisive verdicts roundtrip, unknown is not cached" `Quick (fun () ->
        with_tmp_cache (fun c ->
            let open Ub_refine in
            let k1 = Cache.key ~parts:[ "1" ] and k2 = Cache.key ~parts:[ "2" ] in
            Verdict_cache.store c k1 Checker.Refines;
            Alcotest.(check bool) "refines roundtrips" true
              (Verdict_cache.find c k1 = Some Checker.Refines);
            Verdict_cache.store c k2 (Checker.Unknown "budget");
            Alcotest.(check bool) "unknown not cached" true (Verdict_cache.find c k2 = None);
            List.iteri
              (fun i v ->
                let name = Checker.verdict_to_string v in
                Alcotest.(check bool) ("record roundtrips: " ^ name) true
                  (Verdict_cache.decode (Verdict_cache.encode v) = Some v);
                let k = Cache.key ~parts:[ "sample"; string_of_int i ] in
                Verdict_cache.store c k v;
                Alcotest.(check bool) ("journal roundtrips: " ^ name) true
                  (Verdict_cache.find c k
                  = if Verdict_cache.cacheable v then Some v else None))
              Verdict_samples.verdicts));
    Alcotest.test_case "a first-format record reads as stale" `Quick (fun () ->
        with_tmp_cache (fun c ->
            let open Ub_refine in
            Obs.reset ();
            let k = Cache.key ~parts:[ "old" ] in
            Cache.store c k ("UBVC1\n" ^ Marshal.to_string Checker.Refines []);
            Alcotest.(check bool) "a miss" true (Verdict_cache.find c k = None);
            Alcotest.(check int) "counted stale" 1 (Obs.counter_value "verdict_cache.stale");
            Obs.reset ()));
    (* Fail closed: a record with any byte flipped, or cut short, is a
       stale miss, never a verdict. *)
    (let records =
       Array.of_list (List.map Ub_refine.Verdict_cache.encode Verdict_samples.verdicts)
     in
     let gen =
       QCheck.Gen.(
         int_bound (Array.length records - 1) >>= fun i ->
         map (fun m -> (i, m)) (Verdict_samples.mutation records.(i)))
     in
     let stale c i m =
       let k = Cache.key ~parts:[ "fuzz"; string_of_int i; m ] in
       Cache.store c k m;
       let before = Obs.counter_value "verdict_cache.stale" in
       Ub_refine.Verdict_cache.find c k = None
       && Obs.counter_value "verdict_cache.stale" = before + 1
     in
     Alcotest.test_case "a damaged record is a stale miss" `Quick (fun () ->
         with_tmp_cache (fun c ->
             QCheck.Test.check_exn
               (QCheck.Test.make ~count:2000 ~name:"damaged journal record"
                  (QCheck.make ~print:(fun (i, m) -> Printf.sprintf "%d: %S" i m) gen)
                  (fun (i, m) -> stale c i m)))));
  ]

let () =
  Alcotest.run "exec"
    [ ("pool", pool_tests); ("cache", cache_tests); ("journal", journal_tests);
      ("verdict-cache", verdict_tests);
    ]
