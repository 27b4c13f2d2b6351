(* Self-tests for the benchmark (run by `dune runtest`, from the build
   copy of this directory):

   - a tiny run of every workload, untraced and traced, prints every
     metric BENCHMARK.json names, with its unit, and verifies;
   - a planted wrong expected verdict is caught, in-process and over
     the daemon, and a counterexample that does not hold fails replay;
   - the search menu's expected answers hold under enumeration at a
     width enumeration can cover;
   - a serve run leaves no daemon process and no socket behind. *)

open Perfbench
open Common

let failures = ref 0

let check (what : string) (ok : bool) =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

(* (name, unit) of every metric in one BENCHMARK.json section. *)
let declared (section : string) : (string * string) list =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (
    match Option.bind (Json.member section j) Json.to_list with
    | None -> failwith ("BENCHMARK.json: no " ^ section)
    | Some ms ->
      List.map
        (fun x -> (Option.get (Json.str_field x "name"), Option.get (Json.str_field x "unit")))
        ms)

(* The metrics of a printed result line, as (name, unit). *)
let printed (r : Driver.outcome) : (string * string) list =
  let line =
    result_line ~correct:r.Driver.ok ~attempted:r.Driver.tally.attempted
      ~failed:r.Driver.tally.failed r.Driver.metrics
  in
  match Json.of_string line with
  | Ok j -> (
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
      List.map (fun (k, v) -> (k, Option.value ~default:"" (Json.str_field v "unit"))) kvs
    | _ -> [])
  | Error _ -> []

let setup ?(pool = "expand") w = Driver.setup_of ~workload:w ~data:"." ~pool ~seed:7

let tiny_runs () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun w ->
      let units = if w = "serve" then 200 else 6 in
      (* a few hunt programs cannot rediscover every entry: there, only
         ask that no unit failed *)
      let verifies (r : Driver.outcome) =
        if w = "hunt" then r.Driver.tally.failed = 0 else r.Driver.ok
      in
      let r = Driver.untraced ~setup:(setup w) ~budget:(Workload.Units units) in
      check (w ^ ": untraced run verifies") (verifies r);
      check (w ^ ": prints every end-to-end metric with its unit") (printed r = e2e);
      let r =
        Driver.traced ~units ~setup:(setup w)
          ~trace_path:(Filename.concat Driver.run_dir "trace-selftest.jsonl") ()
      in
      check (w ^ ": traced run verifies") (verifies r);
      check (w ^ ": prints every per-layer metric with its unit") (printed r = layers))
    Driver.workloads;
  (* the held-out expand pool's pinned verdicts still hold *)
  let r = Driver.untraced ~setup:(setup ~pool:"confirm" "expand") ~budget:(Workload.Units 6) in
  check "expand --pool confirm: untraced run verifies" r.Driver.ok

(* One whole hunt pass rediscovers every entry, and the clean control
   stays silent. *)
let hunt_recall () =
  let pass = List.fold_left (fun n (_, k) -> n + k) 0 Hunt_load.budgets in
  let r = Driver.untraced ~setup:(setup "hunt") ~budget:(Workload.Units pass) in
  check "hunt: one pass recalls every entry with no failed unit" r.Driver.ok

let planted () =
  (* in-process: one cheap query whose expected answer is flipped *)
  let pairs =
    Search.corpus ~seed:1
    |> Array.to_list
    |> List.filter (fun q -> String.length q.Search.label > 9 && String.sub q.Search.label 0 9 = "shift-add")
    |> List.map (fun q ->
           { Pairs.label = q.Search.label;
             mode = Ub_sem.Mode.proposed;
             src = q.Search.src;
             tgt = q.Search.tgt;
             want = (match q.Search.want with Refines -> Cex | _ -> Refines);
           })
    |> Array.of_list
  in
  let inst = Pairs.instance pairs in
  let t = new_tally () in
  inst.Workload.measure t (Workload.Units (Array.length pairs));
  inst.Workload.verify t;
  check "a flipped expected verdict fails every unit" (t.failed = Array.length pairs);
  check "... and the run is not correct" (not (Driver.correct t));
  (* over the daemon: every pinned serve verdict flipped *)
  let flipped = "planted.tsv" in
  Out_channel.with_open_text flipped (fun oc ->
      In_channel.with_open_text "pool.tsv" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char '\t' line with
             | [ p; s; i; md; b; v ] ->
               let v = if v = "refines" then "counterexample" else "refines" in
               output_string oc (String.concat "\t" [ p; s; i; md; b; v ] ^ "\n")
             | _ -> ()));
  let inst =
    Serve_load.setup ~path:flipped ~seed:3 ~dir:(Filename.concat Driver.run_dir "planted")
  in
  let t = new_tally () in
  Fun.protect ~finally:inst.Workload.teardown (fun () ->
      inst.Workload.measure t (Workload.Units 100);
      inst.Workload.verify t);
  check "a flipped pinned verdict fails every serve request" (t.failed = t.attempted && t.attempted = 100);
  Sys.remove flipped;
  (* a counterexample that does not hold is rejected by replay *)
  let src = Pairs.parse "define i4 @f(i4 %x) {\ne:\n  %y = add i4 %x, 1\n  ret i4 %y\n}" in
  let tgt = Pairs.parse "define i4 @f(i4 %x) {\ne:\n  %y = add i4 %x, 2\n  ret i4 %y\n}" in
  let arg n = Ub_sem.Value.of_int ~width:4 n in
  check "replay confirms a real counterexample" (replay_cex Ub_sem.Mode.proposed ~src ~tgt [ arg 3 ]);
  check "replay rejects a bogus one" (not (replay_cex Ub_sem.Mode.proposed ~src ~tgt:src [ arg 3 ]))

let menu_answers () =
  let rng = Ub_support.Prng.create ~seed:11 in
  let bad = ref [] in
  List.iter
    (fun (f : Search.family) ->
      List.iter
        (fun flip ->
          List.iter
            (fun v ->
              let q = Search.make_query rng f ~flip ~w:4 v ~idx:0 in
              let got =
                enum_class Ub_sem.Mode.proposed ~src:(Pairs.parse q.Search.src)
                  ~tgt:(Pairs.parse q.Search.tgt)
              in
              if got <> q.Search.want then bad := q.Search.label :: !bad)
            [ Search.Ident; Search.Flag; Search.Off ])
        f.Search.orders)
    Search.families;
  check
    ("search answers agree with enumeration at i4" ^ if !bad = [] then "" else ": " ^ String.concat " " !bad)
    (!bad = [])

let no_leftovers () =
  let before = !Serve_load.started in
  let r = Driver.untraced ~setup:(setup "serve") ~budget:(Workload.Units 100) in
  check "serve: tiny run verifies" r.Driver.ok;
  let pids = List.filter (fun p -> not (List.mem p before)) !Serve_load.started in
  check "serve: a daemon per set-up was started" (List.length pids = 5);
  check "serve: every daemon is gone"
    (List.for_all
       (fun pid ->
         match Unix.kill pid 0 with
         | () -> false
         | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
         | exception Unix.Unix_error _ -> false)
       pids);
  let rec sockets dir =
    Array.fold_left
      (fun acc e ->
        let p = Filename.concat dir e in
        match (Unix.lstat p).Unix.st_kind with
        | Unix.S_DIR -> acc @ sockets p
        | Unix.S_SOCK -> p :: acc
        | _ -> acc)
      [] (Sys.readdir dir)
  in
  check "serve: no socket is left" (sockets Driver.run_dir = []);
  check "serve: no daemon directory is left"
    (not (Sys.file_exists (Filename.concat Driver.run_dir (Printf.sprintf "serve-%d" (Unix.getpid ())))))

let () =
  Ub_exec.Cache.mkdir_p Driver.run_dir;
  menu_answers ();
  planted ();
  no_leftovers ();
  tiny_runs ();
  hunt_recall ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
