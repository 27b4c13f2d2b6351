(* The hunting farm (lib/hunt).

   - Recall gate: every injected-bug catalog entry, enabled in
     isolation, is rediscovered by a seeded mini-campaign, and the
     shrunk witness stays small.  The clean prototype pipeline under
     the proposed semantics finds nothing.
   - Fingerprints: skeletons are deterministic, invariant under
     register renaming, and distinct catalog entries never collide.
   - Accounting: crashed, timed-out and deadline-exceeded work is
     recorded as dropped, never silently lost. *)

open Ub_ir
module Hunt = Ub_hunt.Hunt
module Fingerprint = Ub_hunt.Fingerprint
module Inject = Ub_opt.Inject

let seed = 20170601
let programs = 150

(* ------------------------------------------------------------------ *)
(* Recall gate                                                         *)
(* ------------------------------------------------------------------ *)

let run_entry (e : Inject.entry) : Hunt.report =
  let cfg = Hunt.entry_config ~seed ~programs e in
  Hunt.run { cfg with Hunt.jobs = 2; stop_after = Some 1 }

(* One campaign per entry, memoized: the fingerprint tests reuse the
   recall campaigns' findings. *)
let entry_reports : (string, Hunt.report) Hashtbl.t = Hashtbl.create 16

let report_for (e : Inject.entry) : Hunt.report =
  match Hashtbl.find_opt entry_reports e.Inject.name with
  | Some r -> r
  | None ->
    let r = run_entry e in
    Hashtbl.replace entry_reports e.Inject.name r;
    r

let recall_tests =
  List.map
    (fun (e : Inject.entry) ->
      Alcotest.test_case (e.Inject.name ^ " is rediscovered") `Slow (fun () ->
          let r = report_for e in
          Alcotest.(check bool)
            (e.Inject.name ^ ": at least one unique finding")
            true (r.Hunt.r_unique > 0);
          Alcotest.(check int) (e.Inject.name ^ ": nothing dropped") 0 r.Hunt.r_dropped;
          (* backend witnesses keep their trigger shape (a swap loop, a
             spill-pressure region), so they shrink less far than a
             peephole's two-instruction core *)
          let max_insns = if e.Inject.backend <> None then 40 else 8 in
          List.iter
            (fun (f : Hunt.finding) ->
              if f.Hunt.final_insns > max_insns then
                Alcotest.failf "%s: witness has %d insns (max %d):\n%s" e.Inject.name
                  f.Hunt.final_insns max_insns
                  (Printer.func_to_string f.Hunt.red_src);
              Alcotest.(check string)
                (e.Inject.name ^ ": shrunk witness re-checks as a counterexample")
                "counterexample" f.Hunt.f_verdict)
            r.Hunt.r_uniques))
    Inject.all

let clean_pipeline_is_clean () =
  let cfg = Hunt.clean_config ~seed ~programs in
  let r = Hunt.run { cfg with Hunt.jobs = 2 } in
  Alcotest.(check int) "no findings on the clean pipeline" 0 r.Hunt.r_unique;
  Alcotest.(check int) "nothing dropped" 0 r.Hunt.r_dropped;
  Alcotest.(check int) "every program completed" programs r.Hunt.r_completed;
  Alcotest.(check bool) "the pipeline did change programs" true (r.Hunt.r_changed > 0)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let entry_fps (e : Inject.entry) : string list =
  List.map (fun (f : Hunt.finding) -> f.Hunt.fp) (report_for e).Hunt.r_uniques

let entries_never_collide () =
  let tagged =
    List.concat_map
      (fun (e : Inject.entry) -> List.map (fun fp -> (e.Inject.name, fp)) (entry_fps e))
      Inject.all
  in
  List.iter
    (fun (n1, fp1) ->
      List.iter
        (fun (n2, fp2) ->
          if n1 <> n2 && fp1 = fp2 then
            Alcotest.failf "entries %s and %s share fingerprint %s" n1 n2 fp1)
        tagged)
    tagged

(* The same injected bug hunted from different seeds shrinks to the
   same canonical witness: the fingerprint sets must overlap. *)
let seeds_converge () =
  let fps_at seed =
    let cfg = Hunt.entry_config ~seed ~programs (Inject.find_exn "shl-nsw") in
    let r = Hunt.run { cfg with Hunt.jobs = 2; stop_after = Some 8 } in
    List.map (fun (f : Hunt.finding) -> f.Hunt.fp) r.Hunt.r_uniques
  in
  let a = fps_at 20170601 and b = fps_at 7 and c = fps_at 42 in
  let common = List.filter (fun fp -> List.mem fp b && List.mem fp c) a in
  if common = [] then
    Alcotest.failf "no common fingerprint across seeds: {%s} {%s} {%s}"
      (String.concat "," a) (String.concat "," b) (String.concat "," c)

(* Rename every register (args and defs); labels and structure stay. *)
let rename_vars (fn : Func.t) : Func.t =
  let ren v = "zz." ^ v in
  let subst = function Instr.Var x -> Instr.Var (ren x) | op -> op in
  { fn with
    Func.args = List.map (fun (v, ty) -> (ren v, ty)) fn.Func.args;
    blocks =
      List.map
        (fun (b : Func.block) ->
          { b with
            Func.insns =
              List.map
                (fun (n : Instr.named) ->
                  { Instr.def = Option.map ren n.Instr.def;
                    ins = Instr.map_operands subst n.Instr.ins;
                  })
                b.Func.insns;
            term = Instr.map_term_operands subst b.Func.term;
          })
        fn.Func.blocks;
  }

let gen_fn seed =
  let rng = Ub_support.Prng.create ~seed in
  Ub_fuzz.Gen.hunt_func rng ~name:"p"
    { Ub_fuzz.Gen.default_hunt with Ub_fuzz.Gen.h_undef = true; h_cfg = seed mod 2 = 0 }

let skeleton_deterministic =
  QCheck.Test.make ~count:200 ~name:"skeleton is a function of the program"
    QCheck.small_int (fun seed ->
      Fingerprint.skeleton (gen_fn seed) = Fingerprint.skeleton (gen_fn seed))

let skeleton_rename_invariant =
  QCheck.Test.make ~count:200 ~name:"skeleton is invariant under register renaming"
    QCheck.small_int (fun seed ->
      let fn = gen_fn seed in
      Fingerprint.skeleton fn = Fingerprint.skeleton (rename_vars fn))

(* ------------------------------------------------------------------ *)
(* Accounting: nothing is silently lost                                *)
(* ------------------------------------------------------------------ *)

(* A campaign whose pass crashes the worker on every program: every
   unit of work must come back as a pool_crash drop. *)
let crashes_are_dropped () =
  let boom =
    { Ub_opt.Pass.name = "boom"; run = (fun _ _ -> failwith "injected worker crash") }
  in
  let lane =
    { Hunt.lane_name = "boom/proposed";
      lane_cfg = Ub_opt.Pass.prototype;
      lane_passes = [ boom ];
      lane_mode = Ub_sem.Mode.proposed;
      lane_backend = None;
    }
  in
  let cfg = Hunt.default_config ~seed ~programs:5 ~lanes:[ lane ] in
  let r = Hunt.run { cfg with Hunt.jobs = 2 } in
  Alcotest.(check int) "all dropped" 5 r.Hunt.r_dropped;
  Alcotest.(check int) "none completed" 0 r.Hunt.r_completed;
  Alcotest.(check (list (pair string int)))
    "dropped as pool_crash"
    [ ("pool_crash", 5) ]
    r.Hunt.r_dropped_detail

(* A worker killed mid-program by the pool timeout is recorded as a
   pool_timeout drop. *)
let timeouts_are_dropped () =
  let stall =
    { Ub_opt.Pass.name = "stall";
      run =
        (fun _ fn ->
          Unix.sleepf 5.0;
          fn);
    }
  in
  let lane =
    { Hunt.lane_name = "stall/proposed";
      lane_cfg = Ub_opt.Pass.prototype;
      lane_passes = [ stall ];
      lane_mode = Ub_sem.Mode.proposed;
      lane_backend = None;
    }
  in
  let cfg = Hunt.default_config ~seed ~programs:2 ~lanes:[ lane ] in
  let r = Hunt.run { cfg with Hunt.jobs = 2; timeout_s = Some 0.2 } in
  Alcotest.(check int) "all dropped" 2 r.Hunt.r_dropped;
  Alcotest.(check (list (pair string int)))
    "dropped as pool_timeout"
    [ ("pool_timeout", 2) ]
    r.Hunt.r_dropped_detail;
  Alcotest.(check int) "completed + dropped covers the budget" 2
    (r.Hunt.r_completed + r.Hunt.r_dropped)

(* Daemon path: submits that exceed the request deadline come back as
   timeout verdicts and are recorded as daemon_deadline drops. *)

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let with_server k =
  let dir = Filename.temp_file "ub_hunt_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let socket_path = Filename.concat dir "s.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Ub_obs.Obs.child_begin ();
    (try Ub_serve.Server.run (Ub_serve.Server.default_config ~socket_path) with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        waitpid_retry pid;
        (try Sys.remove socket_path with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())
      (fun () ->
        let rec wait n =
          if Sys.file_exists socket_path then ()
          else if n > 200 then Alcotest.fail "daemon did not come up"
          else begin
            Unix.sleepf 0.05;
            wait (n + 1)
          end
        in
        wait 0;
        k socket_path)

let daemon_deadline_is_dropped () =
  with_server (fun socket ->
      let cfg = Hunt.entry_config ~seed ~programs:32 (Inject.find_exn "shl-nsw") in
      let remote =
        { (Hunt.default_remote ~socket) with Hunt.deadline_s = Some 1e-6; batch = 8 }
      in
      let r = Hunt.run ~remote cfg in
      Alcotest.(check bool) "work was submitted" true (r.Hunt.r_changed > 0);
      Alcotest.(check bool) "deadline drops recorded" true (r.Hunt.r_dropped > 0);
      Alcotest.(check int) "every check is answered or dropped" r.Hunt.r_changed
        (r.Hunt.r_checks + r.Hunt.r_dropped);
      Alcotest.(check bool) "drops are attributed to the deadline" true
        (List.mem_assoc "daemon_deadline" r.Hunt.r_dropped_detail))

(* The two drivers run one campaign loop over the same per-program
   work, so a campaign checked locally and through the daemon finds the
   same things.  They could differ: a local check runs at the reducer's
   budget (Reduce.reduce_universal_bits / reduce_conflicts) and the
   daemon at its own, larger default (the wire carries no budget), so a
   pair that is Unknown under the smaller budget may be decided by the
   daemon.  shl-nsw's pairs are decided under both.  A backend entry
   (const-prop-bad-arm) sends the daemon nothing: generation, TV and
   shrinking all run in the client, and its CPU time must count them as
   the local campaign's pool tasks do.  Both campaigns do the same work,
   so the daemon's CPU time must also stay under twice the local one.
   Adding each reply's [wall_s] would count a pipelined batch's queueing
   once per request behind it: on a 2-vCPU machine, at 64 requests a
   batch, that read 2.9-5.3x the local time, where each check's own
   [service_s] reads 0.8-1.2x. *)
let drivers_agree () =
  List.iter
    (fun (name, programs) ->
      let cfg = Hunt.entry_config ~seed ~programs (Inject.find_exn name) in
      let local = Hunt.run_local cfg in
      let daemon =
        with_server (fun socket ->
            Hunt.run ~remote:{ (Hunt.default_remote ~socket) with Hunt.batch = 64 } cfg)
      in
      let fps (r : Hunt.report) =
        List.map (fun (f : Hunt.finding) -> f.Hunt.fp) r.Hunt.r_uniques
      in
      let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
      Alcotest.(check bool) (name ^ ": the campaign changed programs") true
        (local.Hunt.r_changed > 0);
      Alcotest.(check bool) (name ^ ": the campaign found the bug") true
        (local.Hunt.r_unique > 0);
      check_int "changed" local.Hunt.r_changed daemon.Hunt.r_changed;
      check_int "checks" local.Hunt.r_checks daemon.Hunt.r_checks;
      check_int "findings" local.Hunt.r_findings daemon.Hunt.r_findings;
      check_int "unique" local.Hunt.r_unique daemon.Hunt.r_unique;
      Alcotest.(check (list string)) (name ^ ": fingerprints") (fps local) (fps daemon);
      check_int "nothing dropped" 0 daemon.Hunt.r_dropped;
      if daemon.Hunt.r_cpu_s < 0.5 *. local.Hunt.r_cpu_s then
        Alcotest.failf "%s: daemon cpu_s %.3f < half of local cpu_s %.3f" name
          daemon.Hunt.r_cpu_s local.Hunt.r_cpu_s;
      if daemon.Hunt.r_cpu_s > 2.0 *. local.Hunt.r_cpu_s then
        Alcotest.failf "%s: daemon cpu_s %.3f > twice local cpu_s %.3f" name
          daemon.Hunt.r_cpu_s local.Hunt.r_cpu_s)
    [ ("shl-nsw", 128); ("const-prop-bad-arm", 16) ]

(* ------------------------------------------------------------------ *)
(* Enumeration work                                                    *)
(* ------------------------------------------------------------------ *)

(* How much enumerating a fixed small campaign does: IR runs
   ([interp.runs]), machine runs ([tv.mir_runs]) and the target
   enumerations the source-UB short-circuit skips.  The counts are the
   same on every machine, so a change to what enumeration does, or how
   often, shows up here.  The IR entry checks its memory lanes by
   enumeration; the backend entry runs translation validation and its
   shrinker. *)
let enumeration_work () =
  Ub_obs.Obs.reset ();
  Fun.protect ~finally:Ub_obs.Obs.reset @@ fun () ->
  List.iter
    (fun name ->
      let cfg = Hunt.entry_config ~seed ~programs:60 (Inject.find_exn name) in
      ignore (Hunt.run_local { cfg with Hunt.jobs = 1; timeout_s = None; stop_after = None }))
    [ "malloc-to-alloca"; "cmov-stale-flags" ];
  let c = Ub_obs.Obs.counter_value in
  (* before the short-circuit: 32,737 IR runs, the same MIR runs *)
  Alcotest.(check int) "interp.runs" 29_026 (c "interp.runs");
  Alcotest.(check int) "tv.mir_runs" 46_434 (c "tv.mir_runs");
  Alcotest.(check int) "refine.enum_tgt_skipped" 1_863 (c "refine.enum_tgt_skipped")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "hunt"
    [ ("recall", recall_tests);
      ( "clean",
        [ Alcotest.test_case "clean pipeline finds nothing" `Slow clean_pipeline_is_clean ]
      );
      ( "fingerprint",
        [ Alcotest.test_case "distinct entries never collide" `Slow entries_never_collide;
          Alcotest.test_case "seeds converge on a common witness" `Slow seeds_converge;
          QCheck_alcotest.to_alcotest skeleton_deterministic;
          QCheck_alcotest.to_alcotest skeleton_rename_invariant;
        ] );
      ("enumeration", [ Alcotest.test_case "work of a fixed campaign" `Quick enumeration_work ]);
      ( "accounting",
        [ Alcotest.test_case "worker crashes are dropped" `Quick crashes_are_dropped;
          Alcotest.test_case "pool timeouts are dropped" `Quick timeouts_are_dropped;
          Alcotest.test_case "daemon deadline misses are dropped" `Quick
            daemon_deadline_is_dropped;
        ] );
      ( "drivers",
        [ Alcotest.test_case "local and daemon campaigns agree" `Quick drivers_agree ] );
    ]
