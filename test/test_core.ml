(* The end-to-end driver and the benchmark suite: every kernel runs to a
   concrete value under the pipeline's own semantics, metrics are sane,
   and the freeze statistics have the paper's shape (bit-field-heavy gcc
   is the maximum). *)

open Ub_sem
open Ub_core.Driver

let suite_tests =
  List.map
    (fun (b : Ub_core.Spec_suite.bench) ->
      Alcotest.test_case (b.Ub_core.Spec_suite.name ^ " compiles and runs") `Slow (fun () ->
          let proto = Ub_core.Driver.compile ~pipeline:Ub_core.Driver.Prototype b.source in
          let base = Ub_core.Driver.compile ~pipeline:Ub_core.Driver.Baseline b.source in
          (* prototype output runs under the proposed semantics *)
          let sp = Ub_core.Driver.simulate proto ~entry:b.entry ~args:[] in
          (match sp.Ub_core.Driver.outcome with
          | Interp.Returned (Some (Value.Scalar (Value.Conc _))) -> ()
          | o -> Alcotest.failf "prototype: %s" (Interp.outcome_to_string o));
          (* baseline output runs under the old semantics *)
          let sb = Ub_core.Driver.simulate base ~entry:b.entry ~args:[] in
          (match sb.Ub_core.Driver.outcome with
          | Interp.Returned (Some (Value.Scalar (Value.Conc _))) -> ()
          | o -> Alcotest.failf "baseline: %s" (Interp.outcome_to_string o));
          (* both agree on the result (these programs are UB-free) *)
          Alcotest.(check string)
            (b.name ^ " same result")
            (Interp.outcome_to_string sb.outcome)
            (Interp.outcome_to_string sp.outcome);
          (* metrics sanity *)
          Alcotest.(check bool) "cycles positive" true (sp.cycles_m1 > 0.0 && sp.cycles_m2 > 0.0);
          Alcotest.(check bool) "object bytes positive" true
            (proto.Ub_core.Driver.metrics.Ub_core.Driver.obj_bytes > 0);
          Alcotest.(check bool) "IR nonempty" true
            (proto.Ub_core.Driver.metrics.Ub_core.Driver.ir_insns > 0)))
    Ub_core.Spec_suite.all

let shape_tests =
  [ Alcotest.test_case "gcc has the most freezes (the §7.2 shape)" `Slow (fun () ->
        let freeze_of (b : Ub_core.Spec_suite.bench) =
          ( b.Ub_core.Spec_suite.name,
            (Ub_core.Driver.compile ~pipeline:Ub_core.Driver.Prototype b.source)
              .Ub_core.Driver.metrics.Ub_core.Driver.freeze_count )
        in
        let counts = List.map freeze_of Ub_core.Spec_suite.all in
        let gcc = List.assoc "gcc" counts in
        Alcotest.(check bool) "gcc > 0" true (gcc > 0);
        List.iter
          (fun (n, c) ->
            if n <> "gcc" then
              Alcotest.(check bool) (n ^ " <= gcc") true (c <= gcc))
          counts);
    Alcotest.test_case "baseline pipeline never emits freeze" `Slow (fun () ->
        List.iter
          (fun (b : Ub_core.Spec_suite.bench) ->
            let base = Ub_core.Driver.compile ~pipeline:Ub_core.Driver.Baseline b.Ub_core.Spec_suite.source in
            Alcotest.(check int) (b.name ^ " baseline freeze") 0
              base.Ub_core.Driver.metrics.Ub_core.Driver.freeze_count)
          Ub_core.Spec_suite.all);
    Alcotest.test_case "optimization shrinks or keeps the suite's IR" `Slow (fun () ->
        List.iter
          (fun (b : Ub_core.Spec_suite.bench) ->
            let m = Ub_minic.Lower.compile ~cfg:(clang_config Prototype) b.Ub_core.Spec_suite.source in
            let before = total_insns m in
            let o = Ub_opt.Pipeline.run_o2 (pass_config Prototype) m in
            let after = total_insns o in
            (* freeze insertion can add a handful; anything larger than
               +25% would mean a pass is duplicating code wholesale
               (unswitching is capped at one loop per pipeline run) *)
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d -> %d" b.name before after)
              true
              (float_of_int after <= 1.6 *. float_of_int before))
          Ub_core.Spec_suite.all);
    Alcotest.test_case "comparison record is internally consistent" `Slow (fun () ->
        let b = List.hd Ub_core.Spec_suite.all in
        let c =
          Ub_core.Driver.compare_pipelines ~name:b.Ub_core.Spec_suite.name ~entry:b.entry
            ~args:[] b.source
        in
        Alcotest.(check string) "name" b.name c.Ub_core.Driver.name;
        Alcotest.(check bool) "freeze fraction in [0,100]" true
          (c.freeze_fraction_pct >= 0.0 && c.freeze_fraction_pct <= 100.0));
  ]

(* Every kernel's build under both pipelines: the MD5 of the optimized
   IR text, the object bytes, the freeze count and the cycle totals on
   machine1 and machine2.  A change that moves any of them changes what
   a pipeline compiles, not how the choice is spelled. *)
let pinned_builds =
  [
    ("perlbench", Baseline, "e800ee2464bc08b4bdea61b778ba256f", 243, 0, 67441., 61837.);
    ("perlbench", Prototype, "e800ee2464bc08b4bdea61b778ba256f", 243, 0, 67441., 61837.);
    ("bzip2", Baseline, "738c1836919d210aa81251ff1bc432ac", 521, 0, 283835., 248261.);
    ("bzip2", Prototype, "738c1836919d210aa81251ff1bc432ac", 521, 0, 283835., 248261.);
    ("gcc", Baseline, "53f1a6e4351b797ef7092f04717539d6", 817, 0, 18091., 17359.);
    ("gcc", Prototype, "3503b8d275ad646d0821e331935b2367", 886, 11, 18706., 17666.5);
    ("mcf", Baseline, "e523d96c5f297ed2eed8c6b8200175f7", 296, 0, 80019., 69949.);
    ("mcf", Prototype, "e523d96c5f297ed2eed8c6b8200175f7", 296, 0, 80019., 69949.);
    ("gobmk", Baseline, "ec10262f4c1e46db257d4399ddff7176", 521, 0, 86162., 80073.);
    ("gobmk", Prototype, "708c1248822c393ec6e3423553c95a50", 521, 0, 86162., 80073.);
    ("hmmer", Baseline, "c293738f10b4413316be811687286968", 367, 0, 95999., 91929.);
    ("hmmer", Prototype, "1741b67fea3bfd8dd164464fb4e17125", 367, 0, 95999., 91929.);
    ("sjeng", Baseline, "c4996ab5c83cc1e8cd7376d285fdf480", 338, 0, 68174., 59651.);
    ("sjeng", Prototype, "c4996ab5c83cc1e8cd7376d285fdf480", 338, 0, 68174., 59651.);
    ("libquantum", Baseline, "2cbe58b4cb413a59e7762fdb3a4a5e19", 304, 0, 132744., 129047.);
    ("libquantum", Prototype, "2cbe58b4cb413a59e7762fdb3a4a5e19", 304, 0, 132744., 129047.);
    ("h264ref", Baseline, "8cef18538da76e13ccc2192c7090bdbd", 319, 0, 100139., 87648.);
    ("h264ref", Prototype, "8cef18538da76e13ccc2192c7090bdbd", 319, 0, 100139., 87648.);
    ("omnetpp", Baseline, "ecebc7af2ab95e3887995e8a269d3275", 507, 0, 40807., 35916.);
    ("omnetpp", Prototype, "814462f2030f105fee3df737c61d2d10", 507, 0, 40807., 35916.);
    ("astar", Baseline, "3578884413c9e540a7e9a849d16f3af6", 705, 0, 393429., 352982.);
    ("astar", Prototype, "8e013b96bb737832637556ffe52d5f95", 705, 0, 393429., 352982.);
    ("xalancbmk", Baseline, "5f75fbfd4231e2197ea147951f8c5012", 411, 0, 30110., 25707.);
    ("xalancbmk", Prototype, "04b632ffcb27ce8222a9dfe5abe50705", 411, 0, 30110., 25707.);
    ("milc", Baseline, "288a78c1ae8856b87fa3f566b67858d9", 276, 0, 178389., 157086.);
    ("milc", Prototype, "288a78c1ae8856b87fa3f566b67858d9", 276, 0, 178389., 157086.);
    ("namd", Baseline, "027068fe29a178d887c8f6ac0c9a69a8", 448, 0, 610875., 564939.);
    ("namd", Prototype, "027068fe29a178d887c8f6ac0c9a69a8", 448, 0, 610875., 564939.);
    ("dealII", Baseline, "a1ada23a44863003ccdb572fe83db976", 362, 0, 106155., 98410.);
    ("dealII", Prototype, "8bead5f563a3b177ac0386bab490c205", 362, 0, 106155., 98410.);
    ("soplex", Baseline, "24eae0541f7b3ded764df57f1cc1e793", 308, 0, 52779., 42535.);
    ("soplex", Prototype, "6ff1856343f8e7a883d88cfbc00be202", 308, 0, 52779., 42535.);
    ("povray", Baseline, "c14073248eea9dbe651a501a0a55a0fc", 266, 0, 27854., 25619.);
    ("povray", Prototype, "7c8738403f97032f3de524b167804479", 266, 0, 27854., 25619.);
    ("lbm", Baseline, "d7cb625953da97dafe5bf2a0749531cd", 500, 0, 129475., 119989.);
    ("lbm", Prototype, "aa94121d17639f6ff013ea0069b2d84d", 502, 1, 129515., 120009.);
    ("sphinx3", Baseline, "654dfe19c154b6e9dd314858a0f54db7", 300, 0, 108700., 96107.);
    ("sphinx3", Prototype, "654dfe19c154b6e9dd314858a0f54db7", 300, 0, 108700., 96107.);
    ("queens", Baseline, "e1363d0340cc1421fd1d50b25f638e6b", 1318, 0, 2005428., 1781226.5);
    ("queens", Prototype, "1e7c1e9ff128b2440c35ea236f65e7f3", 1324, 2, 2005430., 1781227.5);
    ("nestedloop", Baseline, "fc06a70b932577e0f995aa50b6f449ca", 251, 0, 133708., 110747.);
    ("nestedloop", Prototype, "f4a40e3433104709429bbcb8e7ab9ba7", 251, 0, 133708., 110747.);
  ]

let pin_tests =
  [ Alcotest.test_case "every kernel's build is pinned under both pipelines" `Slow (fun () ->
        List.iter
          (fun (name, pipeline, ir_md5, obj, freezes, m1, m2) ->
            let b = List.find (fun (b : Ub_core.Spec_suite.bench) -> b.name = name) Ub_core.Spec_suite.all in
            let cp = compile ~pipeline b.source in
            let sim = simulate cp ~entry:b.entry ~args:[] in
            let what = Printf.sprintf "%s %s: " name (if pipeline = Baseline then "baseline" else "prototype") in
            Alcotest.(check string) (what ^ "optimized IR md5") ir_md5
              (Digest.to_hex (Digest.string (Ub_ir.Printer.module_to_string cp.opt_ir)));
            Alcotest.(check int) (what ^ "obj bytes") obj cp.metrics.obj_bytes;
            Alcotest.(check int) (what ^ "freezes") freezes cp.metrics.freeze_count;
            Alcotest.(check (float 0.0)) (what ^ "machine1 cycles") m1 sim.cycles_m1;
            Alcotest.(check (float 0.0)) (what ^ "machine2 cycles") m2 sim.cycles_m2)
          pinned_builds);
    (* [ubc compile --cycles] lowers and optimizes with the Driver's
       mapping and prices the build with [Driver.price], so a legacy
       build runs under the old semantics it targets and costs what F6
       charges it; profiled under the proposed semantics, gcc and queens
       end in UB. *)
    Alcotest.test_case "the CLI's cycle pricing gives F6's legacy totals" `Slow (fun () ->
        List.iter
          (fun (name, m1) ->
            let b = List.find (fun (b : Ub_core.Spec_suite.bench) -> b.name = name) Ub_core.Spec_suite.all in
            let opt_ir =
              Ub_opt.Pipeline.run_o2 (pass_config Baseline)
                (Ub_minic.Lower.compile ~cfg:(clang_config Baseline) b.source)
            in
            let cli =
              price Baseline ~opt_ir ~compiled:(Ub_backend.Compile.compile_module opt_ir) ~entry:"main"
                ~args:[]
            in
            let f6 = (compare_pipelines ~name ~entry:b.entry ~args:[] b.source).baseline in
            let f6 = simulate f6 ~entry:b.entry ~args:[] in
            Alcotest.(check string) (name ^ " runs to its value")
              (Interp.outcome_to_string f6.outcome) (Interp.outcome_to_string cli.outcome);
            Alcotest.(check (float 0.0)) (name ^ " machine1 = F6") f6.cycles_m1 cli.cycles_m1;
            Alcotest.(check (float 0.0)) (name ^ " machine2 = F6") f6.cycles_m2 cli.cycles_m2;
            Alcotest.(check (float 0.0)) (name ^ " machine1 total") m1 cli.cycles_m1)
          [ ("gcc", 18091.); ("queens", 2005428.) ]);
  ]

let () =
  Alcotest.run "core"
    [ ("spec-suite", suite_tests); ("shape", shape_tests); ("pins", pin_tests) ]
