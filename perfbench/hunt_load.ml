(* The `hunt` workload: the hunting farm at the committed seed over four
   catalog entries and the clean control.  A unit is one generated
   program, run as a one-program [Hunt.run_local] campaign so each is
   timed on its own; campaign program i at seed s is exactly the
   one-program campaign at seed s + i.

   An entry counts as recalled when one of its programs yields a finding
   whose shrunk witness replays: through enumeration for IR lanes, and
   through the lowering TV for the backend lane.  Any finding in the
   clean control is a failed unit. *)

open Common
module Hunt = Ub_hunt.Hunt
module Prng = Ub_support.Prng

(* The seed `bench hunt` commits to. *)
let hunt_seed = 20170601

(* Programs per entry in one pass.  Each budget covers the entry's
   first findings at the committed seed; the clean control gets many
   cheap programs. *)
let budgets =
  [ (Some "select-undef-arm", 100);
    (Some "store-forward-alias", 200);
    (Some "malloc-to-alloca", 200);
    (Some "cmov-stale-flags", 200);
    (None, 1000) ]

let entry_name = function Some e -> e | None -> "clean"

let config (entry : string option) ~(index : int) : Hunt.config =
  let seed = hunt_seed + index in
  let cfg =
    match entry with
    | Some e -> Hunt.entry_config ~seed ~programs:1 (Ub_opt.Inject.find_exn e)
    | None -> Hunt.clean_config ~seed ~programs:1
  in
  { cfg with Hunt.jobs = 1; timeout_s = None; stop_after = None }

(* Replay a shrunk witness with code other than the checker that
   found it. *)
let confirm (f : Hunt.finding) : bool =
  match f.Hunt.f_backend with
  | Some b -> (
    match Ub_backend.Tv.check_func ~bug:(Ub_backend.Mir_inject.find_exn b) f.Hunt.red_src with
    | Ub_backend.Tv.Not_refined _ -> true
    | _ | (exception _) -> false)
  | None -> (
    match Ub_sem.Mode.find f.Hunt.f_mode with
    | Some mode -> enum_class mode ~src:f.Hunt.red_src ~tgt:f.Hunt.red_tgt = Cex
    | None -> false)

let setup ~(seed : int) : Workload.inst =
  let units =
    List.concat_map (fun (e, n) -> List.init n (fun index -> (e, index))) budgets |> Array.of_list
  in
  let units = Prng.shuffle (Prng.create ~seed:(0x4C7 + seed)) units in
  (* findings by entry; first witness per fingerprint *)
  let found : (string, (string * Hunt.finding) list) Hashtbl.t = Hashtbl.create 8 in
  let oracle_calls = ref 0 in
  let unit (t : tally) (i : int) =
    let e, index = units.(i) in
    let t0 = now () in
    match Workload.span "bench.hunt" (fun () -> Hunt.run_local (config e ~index)) with
    | exception ex ->
      t.attempted <- t.attempted + 1;
      fail t (Printf.sprintf "%s/%d: crashed: %s" (entry_name e) index (Printexc.to_string ex))
    | r ->
      let ms = (now () -. t0) *. 1000.0 in
      t.attempted <- t.attempted + 1;
      latency t ~idx:i ~ms;
      if r.Hunt.r_unknown = 0 && r.Hunt.r_dropped = 0 then t.decided <- t.decided + 1;
      if r.Hunt.r_dropped > 0 then fail t (Printf.sprintf "%s/%d: dropped" (entry_name e) index)
      else if e = None && r.Hunt.r_unique > 0 then
        fail t (Printf.sprintf "clean/%d: finding in the clean control" index);
      let name = entry_name e in
      List.iter
        (fun (f : Hunt.finding) ->
          oracle_calls := !oracle_calls + f.Hunt.oracle_calls;
          let prev = Option.value ~default:[] (Hashtbl.find_opt found name) in
          if not (List.mem_assoc f.Hunt.fp prev) then Hashtbl.replace found name ((f.Hunt.fp, f) :: prev))
        r.Hunt.r_uniques
  in
  (* warm-up: the first twenty programs of every entry, whatever the seed *)
  List.iter
    (fun (e, _) ->
      for index = 0 to 19 do
        ignore (Hunt.run_local (config e ~index))
      done)
    budgets;
  { Workload.pass_units = Array.length units;
    measure = Workload.run_passes ~pass_units:(Array.length units) unit;
    unit = Some unit;
    verify =
      (fun t ->
        let entries = List.filter_map fst budgets in
        t.want_cex <- List.length entries;
        t.got_cex <-
          List.length
            (List.filter
               (fun e ->
                 let fs = Option.value ~default:[] (Hashtbl.find_opt found e) in
                 let ok = List.filter (fun (_, f) -> confirm f) fs in
                 if List.length ok < List.length fs then
                   fail t ~n:(List.length fs - List.length ok)
                     (Printf.sprintf "%s: a witness did not replay" e);
                 ok <> [])
               entries);
        if t.got_cex < t.want_cex then note t "hunt: an entry was not rediscovered");
    layers = local_layers;
    extra =
      (fun () ->
        [ m "hunt.unique" "count"
            (float_of_int (Hashtbl.fold (fun _ fs n -> n + List.length fs) found 0));
          m "shrink.oracle_calls" "count" (float_of_int !oracle_calls) ]);
    extra_rss_mb = (fun () -> 0.0);
    teardown = (fun () -> ());
  }
