(* The hunting farm: stream generated programs through optimization
   lanes, check refinement, shrink every failure, fingerprint the shrunk
   witness and dedupe.  The campaign's recall is itself a tested number:
   enabling one injected-bug catalog entry at a time (lib/opt/inject.ml)
   must rediscover that entry within a fixed seed/program budget.

   One loop ([campaign]) runs every campaign; every program goes
   through [program_work] and every verdict through [outcome].  The two
   drivers differ only in where a chunk's IR pairs are checked:
   - [run_local]: in place, programs running through the fork pool
     (lib/exec/pool); a crashed or timed-out program is *dropped*;
   - [run_daemon]: pipelined to a `ubc serve` daemon; a
     deadline-exceeding, crashed, rejected or erroring check is
     *dropped*.

   The report's invariant, enforced by test_hunt: every unit of work is
   either completed or dropped. *)

open Ub_support
open Ub_ir
open Ub_sem
module Obs = Ub_obs.Obs
module Json = Ub_obs.Json
module Wire = Ub_serve.Wire

(* ------------------------------------------------------------------ *)
(* Lanes                                                               *)
(* ------------------------------------------------------------------ *)

(* A lane is one (pipeline configuration, semantics mode) pair every
   generated program is pushed through.  A *backend* lane instead names
   a lib/backend/mir_inject bug: the program is compiled once, with the
   bug, and the lowering TV decides whether the buggy compile still
   refines — no IR passes run. *)
type lane = {
  lane_name : string;
  lane_cfg : Ub_opt.Pass.config;
  lane_passes : Ub_opt.Pass.t list;
  lane_mode : Mode.t;
  lane_backend : string option; (* mir_inject bug name *)
}

let fuzz_lane (cfg : Ub_opt.Pass.config) (mode : Mode.t) : lane =
  { lane_name = "fuzz/" ^ mode.Mode.name;
    lane_cfg = cfg;
    lane_passes = Ub_opt.Pipeline.fuzz_passes;
    lane_mode = mode;
    lane_backend = None;
  }

(* An injection lane runs *only* the catalog entry, so every finding is
   attributable to it (the sound passes would otherwise both destroy
   injection patterns and add their own rewrites). *)
let inject_lane ~(entry : string) (mode : Mode.t) : lane =
  { lane_name = Printf.sprintf "inject[%s]/%s" entry mode.Mode.name;
    lane_cfg = { Ub_opt.Pass.prototype with Ub_opt.Pass.inject = [ entry ] };
    lane_passes = [ Ub_opt.Inject.pass ];
    lane_mode = mode;
    lane_backend = None;
  }

(* A backend lane: the injected bug lives in the lowering.  TV always
   interprets the source under the proposed semantics. *)
let backend_lane ~(bug : string) : lane =
  { lane_name = Printf.sprintf "backend[%s]/%s" bug Mode.proposed.Mode.name;
    lane_cfg = Ub_opt.Pass.prototype;
    lane_passes = [];
    lane_mode = Mode.proposed;
    lane_backend = Some bug;
  }

(* ------------------------------------------------------------------ *)
(* Campaign configuration                                              *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  programs : int; (* program budget *)
  gen : Ub_fuzz.Gen.hunt_params;
  lanes : lane list;
  jobs : int; (* local campaigns: pool workers *)
  timeout_s : float option; (* local campaigns: per-program pool timeout *)
  stop_after : int option; (* stop early after this many raw findings *)
}

let default_config ~seed ~programs ~lanes =
  { seed;
    programs;
    gen = Ub_fuzz.Gen.default_hunt;
    lanes;
    jobs = 1;
    timeout_s = None;
    stop_after = None;
  }

(* The per-entry isolation campaign the recall gate and `bench hunt`
   both run: inject-only lanes over the entry's discoverable modes, a
   corpus containing whatever the entry needs to be observable. *)
let entry_config ~seed ~programs (e : Ub_opt.Inject.entry) : config =
  let lanes =
    match e.Ub_opt.Inject.backend with
    | Some bug -> [ backend_lane ~bug ]
    | None ->
      List.filter_map
        (fun m -> Option.map (inject_lane ~entry:e.Ub_opt.Inject.name) (Mode.find m))
        e.Ub_opt.Inject.modes
  in
  let cfg = default_config ~seed ~programs ~lanes in
  { cfg with
    gen =
      { Ub_fuzz.Gen.default_hunt with
        Ub_fuzz.Gen.h_undef = e.Ub_opt.Inject.needs_undef;
        Ub_fuzz.Gen.h_cfg = e.Ub_opt.Inject.needs_cfg;
        Ub_fuzz.Gen.h_mem = e.Ub_opt.Inject.needs_mem;
        Ub_fuzz.Gen.h_backend = e.Ub_opt.Inject.backend <> None;
      };
  }

(* The clean campaign (false-positive gate): the real prototype pipeline
   under the proposed semantics, where it must be sound. *)
let clean_config ~seed ~programs : config =
  let cfg =
    default_config ~seed ~programs ~lanes:[ fuzz_lane Ub_opt.Pass.prototype Mode.proposed ]
  in
  { cfg with gen = { Ub_fuzz.Gen.default_hunt with Ub_fuzz.Gen.h_cfg = true } }

(* ------------------------------------------------------------------ *)
(* Findings and reports                                                *)
(* ------------------------------------------------------------------ *)

type finding = {
  fp : string; (* skeleton fingerprint of the shrunk pair *)
  f_lane : string;
  f_mode : string;
  f_backend : string option; (* backend lanes: the mir_inject bug name *)
  f_program : int; (* index of the generated program *)
  red_src : Func.t;
  red_tgt : Func.t;
  orig_insns : int;
  final_insns : int;
  oracle_calls : int;
  f_verdict : string; (* re-check class of the shrunk pair *)
}

type report = {
  r_programs : int; (* requested budget *)
  r_completed : int; (* programs fully processed *)
  r_changed : int; (* (program, lane) pairs the pipeline changed *)
  r_checks : int; (* refinement checks answered with a verdict *)
  r_unknown : int; (* ... of which inconclusive *)
  r_findings : int; (* raw counterexamples, before dedup *)
  r_unique : int; (* distinct fingerprints *)
  r_dropped : int; (* lost work: programs on the pool, checks on the daemon *)
  r_dropped_detail : (string * int) list; (* reason -> count *)
  r_cpu_s : float;
  r_wall_s : float;
  r_uniques : finding list; (* one representative per fingerprint *)
}

let dedup_ratio (r : report) : float =
  if r.r_unique = 0 then 1.0 else float_of_int r.r_findings /. float_of_int r.r_unique

let bugs_per_cpu_hour (r : report) : float =
  if r.r_cpu_s <= 0.0 then 0.0 else float_of_int r.r_unique *. 3600.0 /. r.r_cpu_s

(* ------------------------------------------------------------------ *)
(* Per-program work                                                    *)
(* ------------------------------------------------------------------ *)

(* The checked outcome of one (program, lane) pair the lane changed.
   Both drivers count outcomes through [tally]. *)
type outcome = Refined | Inconclusive | Found of finding

(* What a lane that changed a program leaves: a backend lane's decided
   outcome, or an IR lane's pair, still to be checked. *)
type pending = { program : int; lane : lane; src : Func.t; tgt : Func.t }
type step = Decided of outcome | Pending of pending

(* Shrinks are budgeted by oracle calls, not a clock. *)
let shrink_steps = 600

let generate (cfg : config) (idx : int) : Func.t =
  let rng = Prng.create ~seed:(cfg.seed + idx) in
  Ub_fuzz.Gen.hunt_func rng ~name:(Printf.sprintf "hunt_%06d" idx) cfg.gen

let optimize (lane : lane) (fn : Func.t) : Func.t =
  Obs.with_span "hunt.optimize" @@ fun () ->
  Ub_opt.Pass.run_pipeline lane.lane_cfg lane.lane_passes fn

let shrink_finding (p : pending) : finding =
  Obs.count "hunt.finding";
  let red =
    Obs.with_span "hunt.shrink" @@ fun () ->
    Ub_refine.Reduce.minimize_cex ~max_steps:shrink_steps p.lane.lane_mode ~src:p.src
      ~tgt:p.tgt
  in
  let red_src, red_tgt, stats, verdict =
    match red with
    | Some r ->
      ( r.Ub_refine.Reduce.red_src,
        r.Ub_refine.Reduce.red_tgt,
        Some r.Ub_refine.Reduce.stats,
        Ub_refine.Verdict_cache.kind (Ub_exec.Pool.Done r.Ub_refine.Reduce.verdict) )
    | None ->
      (* the reducer could not reproduce the failure under its own
         budget: keep the unshrunk witness rather than lose the bug *)
      (p.src, p.tgt, None, "unreduced")
  in
  { fp = Fingerprint.pair ~src:red_src ~tgt:red_tgt;
    f_lane = p.lane.lane_name;
    f_mode = p.lane.lane_mode.Mode.name;
    f_backend = None;
    f_program = p.program;
    red_src;
    red_tgt;
    orig_insns = Func.num_insns p.src;
    final_insns = Func.num_insns red_src;
    oracle_calls =
      (match stats with Some s -> s.Ub_shrink.Reduce.oracle_calls | None -> 0);
    f_verdict = verdict;
  }

(* The one verdict-to-outcome mapping: a local check's verdict and a
   daemon reply's both arrive here. *)
let outcome (p : pending) : Ub_refine.Checker.verdict -> outcome = function
  | Ub_refine.Checker.Counterexample _ -> Found (shrink_finding p)
  | Ub_refine.Checker.Unknown _ -> Inconclusive
  | Ub_refine.Checker.Refines -> Refined

let shrink_backend_finding (lane : lane) ~(bug : Ub_backend.Mir_inject.bug)
    ~(program : int) (fn : Func.t) : finding =
  Obs.count "hunt.finding";
  let red, stats =
    Obs.with_span "hunt.shrink" @@ fun () ->
    Ub_backend.Tv.shrink ~max_steps:shrink_steps ~bug fn
  in
  let verdict =
    match Ub_backend.Tv.check_func ~bug red with
    | Ub_backend.Tv.Not_refined _ -> "counterexample"
    | Ub_backend.Tv.Refined | Ub_backend.Tv.Unsupported _ | Ub_backend.Tv.Inert -> "unreduced"
  in
  { fp = Fingerprint.backend ~src:red ~bug:bug.Ub_backend.Mir_inject.b_name;
    f_lane = lane.lane_name;
    f_mode = lane.lane_mode.Mode.name;
    f_backend = Some bug.Ub_backend.Mir_inject.b_name;
    f_program = program;
    red_src = red;
    red_tgt = red;
    orig_insns = Func.num_insns fn;
    final_insns = Func.num_insns red;
    oracle_calls = stats.Ub_shrink.Reduce.oracle_calls;
    f_verdict = verdict;
  }

(* Backend lanes: ask the lowering TV whether the program compiled with
   the lane's bug still refines.  TV lowers the program once; if the bug
   did not perturb the MIR there ([Tv.Inert]) the program is skipped
   ([None]).  A program isel cannot lower is inconclusive, like any
   other program TV classifies unsupported (the backend generator does
   not produce such programs). *)
let check_backend_lane (lane : lane) ~(bname : string) ~(program : int) (fn : Func.t) :
    outcome option =
  let bug = Ub_backend.Mir_inject.find_exn bname in
  (* tighter budgets than the CLI's: an injected bug can make the
     machine loop diverge, and the pre-drop cost of a diverging tuple
     is max_runs * 20 * fuel MIR steps *)
  let v =
    Obs.with_span "hunt.check" (fun () ->
        Ub_backend.Tv.check_func ~fuel:1_000 ~max_runs:500 ~bug fn)
  in
  let checked outcome =
    Obs.count "hunt.changed";
    Obs.count "hunt.check_done";
    Some outcome
  in
  match v with
  | Ub_backend.Tv.Inert -> None
  | Ub_backend.Tv.Refined -> checked Refined
  | Ub_backend.Tv.Unsupported _ -> checked Inconclusive
  | Ub_backend.Tv.Not_refined _ ->
    checked (Found (shrink_backend_finding lane ~bug ~program fn))

(* Generate program [idx] and push it through every lane, in lane
   order. *)
let program_work (cfg : config) (idx : int) : step list =
  Obs.count "hunt.program";
  let fn = Obs.with_span "hunt.generate" (fun () -> generate cfg idx) in
  List.filter_map
    (fun lane ->
      match lane.lane_backend with
      | Some bname ->
        Option.map (fun o -> Decided o) (check_backend_lane lane ~bname ~program:idx fn)
      | None ->
        let tgt = optimize lane fn in
        if Func.equal tgt fn then None
        else begin
          Obs.count "hunt.changed";
          Some (Pending { program = idx; lane; src = fn; tgt })
        end)
    cfg.lanes

(* A local check runs at the reducer's budget, so every counterexample
   it finds is one the shrinker can reproduce. *)
let check_local (p : pending) : outcome =
  let v =
    Obs.with_span "hunt.check" @@ fun () ->
    Ub_refine.Checker.check ~max_universal_bits:Ub_refine.Reduce.reduce_universal_bits
      ~max_conflicts:Ub_refine.Reduce.reduce_conflicts p.lane.lane_mode ~src:p.src
      ~tgt:p.tgt
  in
  Obs.count "hunt.check_done";
  outcome p v

(* One program, checked where it was generated: every step comes back
   decided. *)
let process_program (cfg : config) (idx : int) : step list =
  List.map (function Pending p -> Decided (check_local p) | d -> d) (program_work cfg idx)

(* ------------------------------------------------------------------ *)
(* The campaign loop                                                   *)
(* ------------------------------------------------------------------ *)

type accum = {
  mutable completed : int;
  mutable changed : int;
  mutable checks : int;
  mutable unknown : int;
  mutable findings : int;
  mutable dropped : (string * int) list;
  mutable cpu_s : float;
  seen : (string, unit) Hashtbl.t;
  mutable uniques : finding list; (* reverse discovery order *)
}

let new_accum () =
  { completed = 0;
    changed = 0;
    checks = 0;
    unknown = 0;
    findings = 0;
    dropped = [];
    cpu_s = 0.0;
    seen = Hashtbl.create 32;
    uniques = [];
  }

let drop (acc : accum) reason =
  Obs.count "hunt.dropped";
  acc.dropped <-
    (match List.assoc_opt reason acc.dropped with
    | Some n -> (reason, n + 1) :: List.remove_assoc reason acc.dropped
    | None -> (reason, 1) :: acc.dropped)

(* Count one answered check of a changed pair; a finding's fingerprint
   joins the seen-set the first time it shows up. *)
let tally (acc : accum) (o : outcome) =
  acc.checks <- acc.checks + 1;
  match o with
  | Refined -> ()
  | Inconclusive -> acc.unknown <- acc.unknown + 1
  | Found f ->
    acc.findings <- acc.findings + 1;
    if not (Hashtbl.mem acc.seen f.fp) then begin
      Hashtbl.replace acc.seen f.fp ();
      Obs.count "hunt.unique";
      acc.uniques <- f :: acc.uniques
    end

(* Record one completed program; every step is a changed pair, checked
   or not.  Returns the pairs still to be checked. *)
let absorb (acc : accum) (steps : step list) : pending list =
  acc.completed <- acc.completed + 1;
  List.filter_map
    (fun s ->
      acc.changed <- acc.changed + 1;
      match s with
      | Decided o ->
        tally acc o;
        None
      | Pending p -> Some p)
    steps

let finish (cfg : config) (acc : accum) ~wall_s : report =
  { r_programs = cfg.programs;
    r_completed = acc.completed;
    r_changed = acc.changed;
    r_checks = acc.checks;
    r_unknown = acc.unknown;
    r_findings = acc.findings;
    r_unique = Hashtbl.length acc.seen;
    r_dropped = List.fold_left (fun n (_, k) -> n + k) 0 acc.dropped;
    r_dropped_detail = List.sort compare acc.dropped;
    r_cpu_s = acc.cpu_s;
    r_wall_s = wall_s;
    r_uniques = List.rev acc.uniques;
  }

(* Programs go in fixed-size chunks, so early stopping ([stop_after])
   falls on the same program whatever checks a chunk, and at any
   [jobs].  [check_chunk] runs and records one chunk's programs. *)
let campaign (cfg : config) ~(chunk : int) (check_chunk : accum -> int array -> unit) :
    report =
  Obs.with_span "hunt.campaign" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let acc = new_accum () in
  let stop () =
    match cfg.stop_after with Some n -> acc.findings >= n | None -> false
  in
  let idx = ref 0 in
  while !idx < cfg.programs && not (stop ()) do
    let n = min chunk (cfg.programs - !idx) in
    check_chunk acc (Array.init n (fun i -> !idx + i));
    idx := !idx + n
  done;
  finish cfg acc ~wall_s:(Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let chunk_size = 32

(* A crashed or timed-out program is dropped whole: here [r_dropped]
   counts programs. *)
let run_local (cfg : config) : report =
  campaign cfg ~chunk:chunk_size @@ fun acc programs ->
  let results, stats =
    Ub_exec.Pool.map_stats ~jobs:cfg.jobs ?timeout_s:cfg.timeout_s (process_program cfg)
      programs
  in
  acc.cpu_s <- acc.cpu_s +. stats.Ub_exec.Pool.busy_s;
  Array.iter
    (function
      | Ub_exec.Pool.Done steps -> ignore (absorb acc steps)
      | Ub_exec.Pool.Crashed _ -> drop acc "pool_crash"
      | Ub_exec.Pool.Timed_out -> drop acc "pool_timeout")
    results

(* The remote checking backend: one daemon socket. *)
type remote = {
  socket : string;
  deadline_s : float option; (* per-request server-side budget *)
  batch : int; (* pipelined requests per round trip *)
}

let default_remote ~socket = { socket; deadline_s = None; batch = 32 }

(* Everything but the IR checks stays in-process ([cfg.jobs] and
   [timeout_s] do not apply).  Each chunk of [batch] programs sends one
   pipelined batch per lane (a batch carries one mode).  The wire
   carries no budget: the daemon checks at its own default budget.
   [r_cpu_s] is the daemon's check time (each reply's [service_s], not
   its queue wait) plus the in-process work, timed as a local campaign
   times its pool tasks.  Here [r_dropped] counts checks. *)
let run_daemon (cfg : config) (r : remote) : report =
  Ub_serve.Client.with_conn ~client:"ubc-hunt" ~socket_path:r.socket @@ fun conn ->
  campaign cfg ~chunk:r.batch @@ fun acc programs ->
  let timed f x =
    let t0 = Obs.Clock.now_s () in
    let y = f x in
    acc.cpu_s <- acc.cpu_s +. Obs.Clock.elapsed_s ~since:t0;
    y
  in
  let pending =
    List.concat_map
      (fun idx -> absorb acc (timed (program_work cfg) idx))
      (Array.to_list programs)
  in
  List.iter
    (fun lane ->
      let mine = List.filter (fun p -> p.lane == lane) pending in
      if mine <> [] then begin
        let pairs =
          Array.of_list
            (List.map
               (fun p -> (Printer.func_to_string p.src, Printer.func_to_string p.tgt))
               mine)
        in
        let replies =
          Obs.with_span "hunt.check" @@ fun () ->
          Ub_serve.Client.check_batch conn ?deadline_s:r.deadline_s
            ~mode:lane.lane_mode.Mode.name pairs
        in
        List.iteri
          (fun i p ->
            match replies.(i) with
            | Wire.Verdict { result = Ub_exec.Pool.Done v; service_s; _ } ->
              acc.cpu_s <- acc.cpu_s +. service_s;
              Obs.count "hunt.check_done";
              tally acc (timed (outcome p) v)
            | Wire.Verdict { result = Ub_exec.Pool.Timed_out; _ } -> drop acc "daemon_deadline"
            | Wire.Verdict { result = Ub_exec.Pool.Crashed _; _ } -> drop acc "daemon_crash"
            | Wire.Overloaded _ -> drop acc "daemon_overload"
            | Wire.Error_r _ -> drop acc "daemon_error"
            | _ -> drop acc "daemon_protocol")
          mine
      end)
    cfg.lanes

let run ?remote (cfg : config) : report =
  match remote with None -> run_local cfg | Some r -> run_daemon cfg r

(* ------------------------------------------------------------------ *)
(* Triaged corpus                                                      *)
(* ------------------------------------------------------------------ *)

let sanitize name =
  String.map (fun c -> if c = '/' || c = '[' || c = ']' then '-' else c) name

(* One re-parsable .ll per unique fingerprint: metadata header (the
   lexer skips ';' lines), then the pair renamed @src/@tgt so
   `ubc check --mode <mode> <file>` replays it. *)
let write_corpus ~(dir : string) (r : report) : string list =
  Util.mkdir_p dir;
  List.map
    (fun (f : finding) ->
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%s.ll" (sanitize f.f_lane) (String.sub f.fp 0 12))
      in
      let header =
        [ "hunt witness " ^ f.fp; "lane: " ^ f.f_lane; "mode: " ^ f.f_mode;
          Printf.sprintf "program: %d (seed-relative)" f.f_program;
          Printf.sprintf "shrink: %d -> %d insns, %d oracle call(s)" f.orig_insns f.final_insns
            f.oracle_calls;
          "verdict: " ^ f.f_verdict ]
      in
      let text =
        match f.f_backend with
        | Some bug ->
          (* the witness is the single source function: the "target" is
             always its own (buggy) compilation *)
          Printer.witness_to_string
            ~header:(header @ [ Printf.sprintf "repro: ubc tv --inject %s %s" bug path ])
            f.red_src
        | None ->
          Printer.witness_to_string
            ~header:(header @ [ Printf.sprintf "repro: ubc check --mode %s %s" f.f_mode path ])
            ~tgt:f.red_tgt f.red_src
      in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      path)
    r.r_uniques

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let finding_json (f : finding) : Json.t =
  Json.Obj
    [ ("fp", Json.Str f.fp);
      ("lane", Json.Str f.f_lane);
      ("mode", Json.Str f.f_mode);
      ("backend", (match f.f_backend with Some b -> Json.Str b | None -> Json.Null));
      ("program", Json.int f.f_program);
      ("orig_insns", Json.int f.orig_insns);
      ("final_insns", Json.int f.final_insns);
      ("verdict", Json.Str f.f_verdict);
    ]

let report_json (r : report) : Json.t =
  Json.Obj
    [ ("programs", Json.int r.r_programs);
      ("completed", Json.int r.r_completed);
      ("changed", Json.int r.r_changed);
      ("checks", Json.int r.r_checks);
      ("unknown", Json.int r.r_unknown);
      ("findings", Json.int r.r_findings);
      ("unique", Json.int r.r_unique);
      ("dropped", Json.int r.r_dropped);
      ( "dropped_detail",
        Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.r_dropped_detail)
      );
      ("cpu_s", Json.Num r.r_cpu_s);
      ("wall_s", Json.Num r.r_wall_s);
      ("dedup_ratio", Json.Num (dedup_ratio r));
      ("bugs_per_cpu_hour", Json.Num (bugs_per_cpu_hour r));
      ("uniques", Json.List (List.map finding_json r.r_uniques));
    ]

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "programs %d/%d, changed %d, checks %d (%d unknown), findings %d, unique %d, dropped \
     %d%s, cpu %.2fs, wall %.2fs"
    r.r_completed r.r_programs r.r_changed r.r_checks r.r_unknown r.r_findings r.r_unique
    r.r_dropped
    (if r.r_dropped_detail = [] then ""
     else
       Printf.sprintf " (%s)"
         (String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.r_dropped_detail)))
    r.r_cpu_s r.r_wall_s
