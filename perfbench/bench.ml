(* The benchmark driver.

     bench.exe --workload expand|search|hunt|serve --seed N --seconds S
               --trace 0|1 [--pool expand|confirm]
     bench.exe --regen POOL_TSV EXPAND_N SERVE_N
     bench.exe --stream-shape PROGRAMS

   An untraced run (--trace 0) sets the workload up five times (the
   median is setup_s), measures units for S seconds, verifies every
   answer, and prints the end-to-end metrics.  A traced run (--trace 1)
   first runs each unit of a pass untraced and traced back to back
   (trace.overhead_ratio is traced over untraced time; serve compares
   whole passes), then sets up again and measures one pass with an Obs
   sink installed and bench.* spans around the calls into each layer,
   and prints that pass's per-layer metrics.  Times are scaled to a
   reference machine speed (Common.Calib).

   --regen rewrites the pinned pools; --stream-shape measures the query
   stream of `ubc hunt --daemon` that the serve workload copies.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  The exit code is 0 only
   when every answer matched its expected verdict. *)

open Perfbench
open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload expand|search|hunt|serve --seed N --seconds S --trace 0|1\n\
    \                 [--pool expand|confirm]\n\
    \       bench.exe --regen POOL_TSV EXPAND_N SERVE_N\n\
    \       bench.exe --stream-shape PROGRAMS";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--regen"; path; e; s ] ->
    Expand.regen ~path ~expand_n:(int_of_string e) ~serve_n:(int_of_string s)
  | [ "--stream-shape"; n ] -> Shape.run ~programs:(int_of_string n)
  | args ->
    let opt = Hashtbl.create 8 in
    let rec parse = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opt (String.sub k 2 (String.length k - 2)) v;
        parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    Hashtbl.iter
      (fun k _ -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "pool" ]) then usage ())
      opt;
    let get k = match Hashtbl.find_opt opt k with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
    let trace = int "trace" in
    let pool = Option.value ~default:"expand" (Hashtbl.find_opt opt "pool") in
    if seconds < 1 || (trace <> 0 && trace <> 1) || (pool <> "expand" && pool <> "confirm") then
      usage ();
    if not (List.mem workload Driver.workloads) then usage ();
    let setup = Driver.setup_of ~workload ~data:"perfbench" ~pool ~seed in
    Ub_exec.Cache.mkdir_p Driver.run_dir;
    (* a signal ends the run through [exit], so at_exit stops the daemon *)
    let stop _ = exit 3 in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    let r =
      if trace = 0 then Driver.untraced ~setup ~budget:(Workload.Seconds (float_of_int seconds))
      else
        Driver.traced ~setup
          ~trace_path:(Filename.concat Driver.run_dir (Printf.sprintf "trace-%s.jsonl" workload))
          ()
    in
    let t = r.Driver.tally in
    List.iter (fun n -> prerr_endline ("mismatch: " ^ n)) (List.rev t.notes);
    print_endline
      (result_line ~correct:r.Driver.ok ~attempted:(max 1 t.attempted) ~failed:t.failed
         r.Driver.metrics);
    exit (if r.Driver.ok then 0 else 1)
