(* `bench hunt`: the hunting farm's recall benchmark.

   For every entry in the injected-bug catalog, run an isolated
   mini-campaign (inject-only lanes, the entry's modes, a corpus with
   whatever the entry needs) under a committed seed and program budget,
   and require the campaign to rediscover the entry.  A final clean
   campaign runs the real prototype pipeline under the proposed
   semantics and must find nothing.

   Writes BENCH_hunt.json: per-entry recall, global dedup ratio and
   bugs/CPU-hour.  Returns false (failing the bench run) if any entry
   is missed, the clean campaign finds a bug, or any work was dropped. *)

module Hunt = Ub_hunt.Hunt
module Json = Ub_obs.Json

(* The committed seed: recall below is a deterministic number. *)
let hunt_seed = 20170601

(* Stop each per-entry campaign after this many raw findings: dedup
   statistics stay meaningful while the shrinker does not grind through
   hundreds of duplicates.  The cap is reported, never silent. *)
let findings_cap = 24

let run ~(jobs : int) ?(timeout_s : float option) ~(programs : int) ~(out : string) () :
    bool =
  Printf.printf "seed %d, %d program(s) per entry, findings capped at %d per entry\n\n"
    hunt_seed programs findings_cap;
  Printf.printf "%-18s %-6s %-6s %8s %7s %7s %8s %8s  %s\n" "entry" "paper" "found"
    "findings" "unique" "insns" "checks" "dropped" "cpu";
  let entry_results =
    List.map
      (fun (e : Ub_opt.Inject.entry) ->
        let cfg = Hunt.entry_config ~seed:hunt_seed ~programs e in
        let cfg =
          { cfg with Hunt.jobs; timeout_s; stop_after = Some findings_cap }
        in
        let rep = Hunt.run cfg in
        let witness_insns =
          List.fold_left
            (fun m (f : Hunt.finding) -> max m f.Hunt.final_insns)
            0 rep.Hunt.r_uniques
        in
        let found = rep.Hunt.r_unique > 0 in
        Printf.printf "%-18s %-6s %-6s %8d %7d %7d %8d %8d  %.2fs%s\n" e.Ub_opt.Inject.name
          e.Ub_opt.Inject.section
          (if found then "yes" else "NO")
          rep.Hunt.r_findings rep.Hunt.r_unique witness_insns rep.Hunt.r_checks
          rep.Hunt.r_dropped rep.Hunt.r_cpu_s
          (if rep.Hunt.r_completed < rep.Hunt.r_programs && found then
             Printf.sprintf " (stopped after %d/%d programs)" rep.Hunt.r_completed
               rep.Hunt.r_programs
           else "");
        (e, rep, witness_insns))
      Ub_opt.Inject.all
  in
  print_newline ();
  let clean_cfg = Hunt.clean_config ~seed:hunt_seed ~programs in
  let clean_cfg = { clean_cfg with Hunt.jobs; timeout_s } in
  let clean = Hunt.run clean_cfg in
  Format.printf "clean pipeline: %a@." Hunt.pp_report clean;
  let found = List.length (List.filter (fun (_, r, _) -> r.Hunt.r_unique > 0) entry_results) in
  let total = List.length entry_results in
  let findings = List.fold_left (fun n (_, r, _) -> n + r.Hunt.r_findings) 0 entry_results in
  let unique = List.fold_left (fun n (_, r, _) -> n + r.Hunt.r_unique) 0 entry_results in
  let cpu = List.fold_left (fun a (_, r, _) -> a +. r.Hunt.r_cpu_s) 0.0 entry_results in
  let dropped =
    clean.Hunt.r_dropped
    + List.fold_left (fun n (_, r, _) -> n + r.Hunt.r_dropped) 0 entry_results
  in
  let dedup = if unique = 0 then 1.0 else float_of_int findings /. float_of_int unique in
  let bugs_per_hour = if cpu <= 0.0 then 0.0 else float_of_int unique *. 3600.0 /. cpu in
  Printf.printf "\nrecall: %d/%d entries rediscovered\n" found total;
  Printf.printf "dedup ratio: %.2f (%d findings -> %d unique)\n" dedup findings unique;
  Printf.printf "bugs/CPU-hour: %.1f (%.2fs CPU)\n" bugs_per_hour cpu;
  if dropped > 0 then Printf.printf "DROPPED: %d work unit(s) lost\n" dropped;
  let json =
    Json.Obj
      [ ("schema", Json.Str "ubc-hunt-bench-v1");
        ("seed", Json.int hunt_seed);
        ("programs_per_entry", Json.int programs);
        ("findings_cap", Json.int findings_cap);
        ( "recall",
          Json.Obj
            [ ("found", Json.int found);
              ("total", Json.int total);
              ( "entries",
                Json.Obj
                  (List.map
                     (fun ((e : Ub_opt.Inject.entry), (r : Hunt.report), insns) ->
                       ( e.Ub_opt.Inject.name,
                         Json.Obj
                           [ ("section", Json.Str e.Ub_opt.Inject.section);
                             ("found", Json.Bool (r.Hunt.r_unique > 0));
                             ("findings", Json.int r.Hunt.r_findings);
                             ("unique", Json.int r.Hunt.r_unique);
                             ("witness_insns", Json.int insns);
                             ("checks", Json.int r.Hunt.r_checks);
                             ("dropped", Json.int r.Hunt.r_dropped);
                             ("cpu_s", Json.Num r.Hunt.r_cpu_s);
                           ] ))
                     entry_results) );
            ] );
        ("clean", Hunt.report_json clean);
        ("dedup_ratio", Json.Num dedup);
        ("bugs_per_cpu_hour", Json.Num bugs_per_hour);
        ("dropped", Json.int dropped);
      ]
  in
  Json.to_file out json;
  Printf.printf "wrote %s\n" out;
  let ok = found = total && clean.Hunt.r_unique = 0 && dropped = 0 in
  if not ok then begin
    if found < total then Printf.printf "RECALL MISS: %d/%d\n" found total;
    if clean.Hunt.r_unique > 0 then
      Printf.printf "FALSE POSITIVE: clean pipeline produced %d finding(s)\n"
        clean.Hunt.r_unique
  end;
  ok
