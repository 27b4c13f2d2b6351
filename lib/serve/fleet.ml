(* The fleet front: N `ubc serve` shards behind one consistent-hash
   router.

   The front forks one daemon per shard (each with its own socket
   DIR/shard-K.sock), writes a machine-readable spec DIR/fleet.json so
   clients can discover the shard set, and then supervises: crashed
   shards are reaped and respawned.  Every shard opens the same verdict
   journal, DIR/verdicts.  The journal already shares appends live
   between processes (fcntl-locked appends; a lookup that misses
   replays what others appended since), so a verdict one shard stores
   is visible to every other shard on its next journal miss, and a
   respawned shard replays the whole journal on open and answers warm.
   A shard SIGKILLed mid-append leaves at most one torn record at the
   tail, which the next store under the lock truncates away. *)

module Obs = Ub_obs.Obs

type config = {
  dir : string; (* fleet home: sockets, the shared journal, spec file *)
  shards : int;
  queue_limit : int;
  batch_max : int;
  default_deadline_s : float option;
  trace : bool; (* per-shard JSONL traces under dir/trace-K.jsonl *)
  verbose : bool;
}

let default_config ~dir =
  { dir;
    shards = 4;
    queue_limit = 256;
    batch_max = 64;
    default_deadline_s = None;
    trace = false;
    verbose = false;
  }

let shard_name i = Printf.sprintf "shard-%d" i
let socket_path cfg i = Filename.concat cfg.dir (shard_name i ^ ".sock")
let journal_dir cfg = Filename.concat cfg.dir "verdicts"
let spec_path dir = Filename.concat dir "fleet.json"

(* ------------------------------------------------------------------ *)
(* Fleet spec: how clients discover the shard set                      *)
(* ------------------------------------------------------------------ *)

let write_spec (cfg : config) (pids : int array) : unit =
  let shards =
    List.init cfg.shards (fun i ->
        Json.Obj
          [ ("name", Json.Str (shard_name i));
            ("socket", Json.Str (socket_path cfg i));
            ("pid", Json.Num (float_of_int pids.(i)));
          ])
  in
  let j =
    Json.Obj
      [ ("schema", Json.Str "ubc-fleet-v1");
        ("dir", Json.Str cfg.dir);
        ("journal", Json.Str (journal_dir cfg));
        ("shards", Json.List shards);
      ]
  in
  let tmp = Printf.sprintf "%s.tmp.%d" (spec_path cfg.dir) (Unix.getpid ()) in
  let oc = open_out tmp in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp (spec_path cfg.dir)

(* Shard sockets from a fleet spec: either a directory holding
   fleet.json, the fleet.json path itself, or a comma-separated socket
   list.  This is what `--fleet SPEC` accepts everywhere. *)
let sockets_of_spec (spec : string) : (string list, string) result =
  let from_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text -> (
      match Json.of_string text with
      | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" path e)
      | Ok j -> (
        match Option.bind (Json.member "shards" j) Json.to_list with
        | None -> Error (path ^ ": no \"shards\" field")
        | Some shards -> (
          match List.filter_map (fun s -> Json.str_field s "socket") shards with
          | [] -> Error (path ^ ": no shard sockets")
          | sockets -> Ok sockets)))
  in
  if Sys.file_exists spec && Sys.is_directory spec then from_file (spec_path spec)
  else if Filename.check_suffix spec ".json" then from_file spec
  else
    match String.split_on_char ',' spec |> List.filter (fun s -> s <> "") with
    | [] -> Error "empty fleet spec"
    | sockets -> Ok sockets

(* ------------------------------------------------------------------ *)
(* Shard processes                                                     *)
(* ------------------------------------------------------------------ *)

let spawn_shard (cfg : config) (i : int) : int =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* fresh telemetry: the child must not inherit the front's trace
       channel or counter registry *)
    Obs.child_begin ();
    Obs.set_shard (shard_name i);
    if cfg.trace then
      Obs.set_trace (Filename.concat cfg.dir (Printf.sprintf "trace-%d.jsonl" i));
    let code =
      try
        let cache = Ub_exec.Cache.open_journal (journal_dir cfg) in
        let scfg =
          { (Server.default_config ~socket_path:(socket_path cfg i)) with
            Server.queue_limit = cfg.queue_limit;
            batch_max = cfg.batch_max;
            default_deadline_s = cfg.default_deadline_s;
            cache = Some cache;
            server_name = Printf.sprintf "ubc-serve/1#%s" (shard_name i);
            verbose = cfg.verbose;
          }
        in
        Server.run scfg;
        0
      with _ -> 3
    in
    (* _exit skips OCaml's at_exit flushing: close the trace sink
       explicitly or a drained shard leaves an empty trace file *)
    Obs.close ();
    Unix._exit code
  | pid -> pid

let wait_for_sockets (cfg : config) : unit =
  let deadline = 200 in
  let rec wait i n =
    if i >= cfg.shards then ()
    else if Sys.file_exists (socket_path cfg i) then wait (i + 1) 0
    else if n > deadline then
      failwith (Printf.sprintf "fleet: %s did not come up" (shard_name i))
    else begin
      Unix.sleepf 0.05;
      wait i (n + 1)
    end
  in
  wait 0 0

(* ------------------------------------------------------------------ *)
(* Local fleet handle (bench / hunt --shards / tests)                  *)
(* ------------------------------------------------------------------ *)

type handle = {
  h_cfg : config;
  h_pids : int array; (* index = shard; -1 once reaped *)
}

let handle_sockets (h : handle) : string list =
  List.init h.h_cfg.shards (fun i -> socket_path h.h_cfg i)

let spawn_local (cfg : config) : handle =
  Ub_exec.Cache.mkdir_p cfg.dir;
  let pids = Array.init cfg.shards (fun i -> spawn_shard cfg i) in
  write_spec cfg pids;
  wait_for_sockets cfg;
  { h_cfg = cfg; h_pids = pids }

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let stop_local (h : handle) : unit =
  Array.iter
    (fun pid -> if pid >= 0 then try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    h.h_pids;
  Array.iteri
    (fun i pid ->
      if pid >= 0 then begin
        ignore (waitpid_retry [] pid);
        h.h_pids.(i) <- -1
      end)
    h.h_pids

(* ------------------------------------------------------------------ *)
(* Cross-shard stats aggregation                                       *)
(* ------------------------------------------------------------------ *)

let num_or_zero j k = Option.value ~default:0.0 (Json.num_field j k)

(* Merge per-shard obs reports (ubc-obs-report-v1) into one fleet
   report: counters sum, spans sum count/total and take the max of max,
   histograms merge count/sum/min/max.  Quantiles are dropped -- they
   are not mergeable across shards without the raw buckets, and a wrong
   p50 is worse than none. *)
let merge_reports (reports : (string * Json.t) list) : Json.t =
  let merge_section name merge_entry =
    let tbl : (string, Json.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (_, rep) ->
        match Json.member name rep with
        | Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              match Hashtbl.find_opt tbl k with
              | None -> Hashtbl.replace tbl k v
              | Some prev -> Hashtbl.replace tbl k (merge_entry prev v))
            kvs
        | _ -> ())
      reports;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let add_num a b =
    match (a, b) with Json.Num x, Json.Num y -> Json.Num (x +. y) | _ -> a
  in
  let merge_span a b =
    Json.Obj
      [ ("count", Json.Num (num_or_zero a "count" +. num_or_zero b "count"));
        ("total_s", Json.Num (num_or_zero a "total_s" +. num_or_zero b "total_s"));
        ("max_s", Json.Num (Float.max (num_or_zero a "max_s") (num_or_zero b "max_s")));
      ]
  in
  let merge_hist a b =
    let ca = num_or_zero a "count" and cb = num_or_zero b "count" in
    let min_v =
      if ca = 0.0 then num_or_zero b "min"
      else if cb = 0.0 then num_or_zero a "min"
      else Float.min (num_or_zero a "min") (num_or_zero b "min")
    in
    Json.Obj
      [ ("count", Json.Num (ca +. cb));
        ("sum", Json.Num (num_or_zero a "sum" +. num_or_zero b "sum"));
        ("min", Json.Num min_v);
        ("max", Json.Num (Float.max (num_or_zero a "max") (num_or_zero b "max")));
      ]
  in
  Json.Obj
    [ ("schema", Json.Str "ubc-obs-report-fleet-v1");
      ("shards", Json.List (List.map (fun (name, _) -> Json.Str name) reports));
      ("counters", Json.Obj (merge_section "counters" add_num));
      ("spans", Json.Obj (merge_section "spans" merge_span));
      ("histograms", Json.Obj (merge_section "histograms" merge_hist));
    ]

(* One fleet-wide stats object from per-shard Stats_r replies: scalar
   load metrics sum, verdict tallies sum, and the obs reports merge via
   [merge_reports].  The per-shard blocks ride along under "shards" so
   nothing is lost by aggregation. *)
let merge_stats (per_shard : (string * Wire.stats_reply) list) : Json.t =
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 per_shard in
  let verdicts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, s) ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace verdicts k (n + Option.value ~default:0 (Hashtbl.find_opt verdicts k)))
        s.Wire.verdicts)
    per_shard;
  let hits = sum (fun s -> s.Wire.cache_hits) and misses = sum (fun s -> s.Wire.cache_misses) in
  Json.Obj
    [ ("schema", Json.Str "ubc-fleet-stats-v1");
      ("shards_reporting", Json.Num (float_of_int (List.length per_shard)));
      ("served", Json.Num (float_of_int (sum (fun s -> s.Wire.served))));
      ("coalesced", Json.Num (float_of_int (sum (fun s -> s.Wire.coalesced_total))));
      ("rejected", Json.Num (float_of_int (sum (fun s -> s.Wire.rejected))));
      ("timeouts", Json.Num (float_of_int (sum (fun s -> s.Wire.timeouts))));
      ("queue_depth", Json.Num (float_of_int (sum (fun s -> s.Wire.queue_depth))));
      ("cache_hits", Json.Num (float_of_int hits));
      ("cache_misses", Json.Num (float_of_int misses));
      ( "cache_hit_rate",
        Json.Num
          (if hits + misses = 0 then 0.0
           else float_of_int hits /. float_of_int (hits + misses)) );
      ( "verdicts",
        Json.Obj
          (Hashtbl.fold (fun k n acc -> (k, Json.Num (float_of_int n)) :: acc) verdicts []
          |> List.sort (fun (a, _) (b, _) -> compare a b)) );
      ("report", merge_reports (List.map (fun (name, s) -> (name, s.Wire.report)) per_shard));
      ( "shards",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [ ("served", Json.Num (float_of_int s.Wire.served));
                     ("coalesced", Json.Num (float_of_int s.Wire.coalesced_total));
                     ("rejected", Json.Num (float_of_int s.Wire.rejected));
                     ("timeouts", Json.Num (float_of_int s.Wire.timeouts));
                     ("queue_depth", Json.Num (float_of_int s.Wire.queue_depth));
                     ("cache_hits", Json.Num (float_of_int s.Wire.cache_hits));
                     ("cache_misses", Json.Num (float_of_int s.Wire.cache_misses));
                     ("uptime_s", Json.Num s.Wire.uptime_s);
                   ] ))
             per_shard) );
    ]

(* ------------------------------------------------------------------ *)
(* The front loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Supervise a fleet until SIGTERM/SIGINT: reap and respawn crashed
   shards, and on shutdown drain every shard and remove the spec. *)
let run (cfg : config) : unit =
  let h = spawn_local cfg in
  let pids = h.h_pids in
  let draining = ref false in
  let on_signal _ = draining := true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  if cfg.verbose then
    Printf.eprintf "[fleet] %d shard(s) up under %s\n%!" cfg.shards cfg.dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    (fun () ->
      while not !draining do
        (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        (* reap; respawn unless we are going down anyway *)
        for i = 0 to cfg.shards - 1 do
          if pids.(i) >= 0 then
            match Unix.waitpid [ Unix.WNOHANG ] pids.(i) with
            | 0, _ -> ()
            | _, _ ->
              pids.(i) <- -1;
              Obs.count "fleet.shard_exits";
              if not !draining then begin
                Obs.count "fleet.restarts";
                if cfg.verbose then
                  Printf.eprintf "[fleet] respawning %s\n%!" (shard_name i);
                (* the respawned shard replays the shared journal on
                   open: it answers warm *)
                pids.(i) <- spawn_shard cfg i;
                write_spec cfg pids
              end
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pids.(i) <- -1
        done
      done);
  if cfg.verbose then Printf.eprintf "[fleet] draining %d shard(s)\n%!" cfg.shards;
  stop_local h;
  (try Sys.remove (spec_path cfg.dir) with Sys_error _ -> ());
  if cfg.verbose then Printf.eprintf "[fleet] down\n%!"
