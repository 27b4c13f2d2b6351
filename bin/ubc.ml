(* ubc: the command-line driver.

     ubc compile [-pipeline legacy|prototype] [-emit ir|asm|mir]
                 [--obj-size] [--cycles] FILE.c|FILE.ll
     ubc tv      [-mode MODE] [--inject BUG] [--gen N --seed S] [FILE.ll]
                                                    (IR->MIR translation validation)
     ubc run     [-mode MODE] FILE.c|FILE.ll [-entry main]
     ubc check   [-mode MODE] SRC.ll TGT.ll        (refinement checking)
     ubc reduce  [-mode MODE] [-o OUT] SRC.ll [TGT.ll]
                                                    (counterexample shrinking)
     ubc serve   --socket PATH [-j N] [--queue N]   (refinement daemon)
     ubc submit  --socket PATH [-mode MODE] SRC.ll [TGT.ll]
                                                    (query a daemon)
     ubc hunt    [--entry NAME]... [--all-entries] [--socket PATH]
                                                    (miscompile hunting farm)
     ubc modes                                      (list semantics modes)

   Exit codes, uniformly across subcommands:
     0  success (and, for check/submit, every verdict was "refines")
     1  verdict failure: a counterexample, unknown, timeout or overload
     2  usage error (bad flags, malformed input files)
     3  internal error (unexpected exception, protocol breakage)
     130/143  interrupted by SIGINT/SIGTERM after cleanup                *)

open Cmdliner
open Ub_ir

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Usage-class failures raised by command bodies (malformed inputs). *)
exception Usage of string

(* ------------------------------------------------------------------ *)
(* Signal hygiene: Ctrl-C (or a SIGTERM) during a pooled run must not  *)
(* leave orphaned worker children or a stray socket file behind.       *)
(* The serve command swaps these handlers for its own graceful drain.  *)
(* ------------------------------------------------------------------ *)

let cleanup_paths : string list ref = ref []
let register_cleanup path = cleanup_paths := path :: !cleanup_paths

let run_cleanups () =
  Ub_exec.Pool.terminate_workers ();
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !cleanup_paths;
  cleanup_paths := []

let install_signal_cleanup () =
  let handler sg =
    run_cleanups ();
    (* conventional 128+signo so callers can tell interruption from a
       verdict failure *)
    exit (128 + if sg = Sys.sigint then 2 else 15)
  in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle handler));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handler))

(* Wrap a command body: usage errors exit 2, unexpected exceptions 3. *)
let guard (f : unit -> int) : int =
  match f () with
  | code -> code
  | exception Usage msg ->
    Printf.eprintf "ubc: %s\n" msg;
    2
  | exception Failure msg ->
    Printf.eprintf "ubc: %s\n" msg;
    3
  | exception e ->
    Printf.eprintf "ubc: internal error: %s\n" (Printexc.to_string e);
    3

let is_minic path = Filename.check_suffix path ".c"

let load_module ~pipeline path : Func.module_ =
  if is_minic path then
    Ub_minic.Lower.compile ~cfg:(Ub_core.Driver.clang_config pipeline) (read_file path)
  else Parser.parse_module (read_file path)

(* The (source, target) pair of check, reduce and submit: two files of
   one function each, or one file holding both (source first), e.g. a
   witness written by 'ubc hunt --corpus'. *)
let load_pair cmd (files : string list) : Func.t * Func.t =
  let funcs path =
    match Parser.parse_module (read_file path) with
    | m -> m.Func.funcs
    | exception e ->
      raise (Usage (Printf.sprintf "%s: cannot parse %s: %s" cmd path (Printexc.to_string e)))
  in
  let first path =
    match funcs path with
    | f :: _ -> f
    | [] -> raise (Usage (Printf.sprintf "%s: %s holds no function" cmd path))
  in
  match files with
  | [ src; tgt ] -> (first src, first tgt)
  | [ pair ] -> (
    match funcs pair with
    | src :: tgt :: _ -> (src, tgt)
    | _ ->
      raise
        (Usage
           (cmd ^ ": FILE must contain two functions (source, then target) when TGT is omitted")))
  | _ -> raise (Usage (cmd ^ ": expected SRC.ll TGT.ll, or one two-function FILE.ll"))

let mode_conv =
  let parse s =
    match Ub_sem.Mode.find s with
    | Some m -> Ok m
    | None ->
      Error (`Msg (Printf.sprintf "unknown mode %s (try: %s)" s
                     (String.concat ", " (List.map (fun m -> m.Ub_sem.Mode.name) Ub_sem.Mode.all))))
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" m.Ub_sem.Mode.name)

let pipeline_conv =
  let parse = function
    | "legacy" | "baseline" -> Ok Ub_core.Driver.Baseline
    | "prototype" | "freeze" -> Ok Ub_core.Driver.Prototype
    | s -> Error (`Msg ("unknown pipeline " ^ s))
  in
  Arg.conv
    ( parse,
      fun ppf p ->
        Format.fprintf ppf "%s"
          (match p with Ub_core.Driver.Baseline -> "legacy" | _ -> "prototype") )

let trace_arg =
  Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Stream a JSONL telemetry trace to $(docv) and write an \
                   aggregated run report to $(docv).report.json.")

(* Arm the telemetry sink around a command body; flush trace + report on
   the way out (including on raise, so partial traces survive). *)
let with_trace trace k =
  match trace with
  | None -> k ()
  | Some f ->
    Ub_obs.Obs.set_trace f;
    Fun.protect
      ~finally:(fun () ->
        Ub_obs.Obs.close ();
        Ub_obs.Obs.write_report (f ^ ".report.json"))
      k

(* The daemon answers [error] to a deadline outside (0, max] seconds;
   refuse it here before anything starts. *)
let check_deadline cmd = function
  | Some s when not (Ub_serve.Wire.valid_deadline s) ->
    raise
      (Usage
         (Printf.sprintf "%s: --deadline must be in (0, %g] seconds" cmd
            Ub_serve.Wire.max_deadline_s))
  | _ -> ()

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let mode_arg =
  Arg.(value & opt mode_conv Ub_sem.Mode.proposed & info [ "mode" ] ~docv:"MODE"
         ~doc:"Semantics mode (see 'ubc modes').")
let pipeline_arg =
  Arg.(value & opt pipeline_conv Ub_core.Driver.Prototype
         & info [ "pipeline" ] ~docv:"P" ~doc:"legacy or prototype.")

let compile_cmd =
  let emit =
    Arg.(value & opt (enum [ ("ir", `Ir); ("asm", `Asm); ("mir", `Mir) ]) `Ir
           & info [ "emit" ]
               ~doc:"Output kind: ir, asm, or mir (pre- and post-regalloc MIR \
                     plus the emitted asm, per function).")
  in
  let obj_size =
    Arg.(value & flag
           & info [ "obj-size" ]
               ~doc:"Print the emitted object size of each function, in bytes.")
  in
  let cycles =
    Arg.(value & flag
           & info [ "cycles" ]
               ~doc:"Profile one execution of @main under the semantics the \
                     pipeline targets (old for legacy, proposed for \
                     prototype) and print simulated cycle totals under both \
                     machine models.")
  in
  let run trace pipeline emit obj_size cycles file =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    let m =
      Ub_opt.Pipeline.run_o2 (Ub_core.Driver.pass_config pipeline) (load_module ~pipeline file)
    in
    let compiled = lazy (Ub_backend.Compile.compile_module m) in
    (match emit with
    | `Ir -> print_string (Printer.module_to_string m)
    | `Asm ->
      List.iter
        (fun (_, c) -> print_string c.Ub_backend.Compile.asm)
        (Lazy.force compiled)
    | `Mir ->
      List.iter
        (fun (name, (c : Ub_backend.Compile.compiled)) ->
          Printf.printf "; ==== %s: pre-regalloc MIR ====\n" name;
          print_string (Ub_backend.Mir_print.func c.Ub_backend.Compile.pre_ra);
          Printf.printf "; ==== %s: post-regalloc MIR (%s) ====\n" name
            (Ub_backend.Mir_print.arg_locs c.Ub_backend.Compile.arg_locs);
          print_string (Ub_backend.Mir_print.func c.Ub_backend.Compile.mir);
          Printf.printf "; ==== %s: asm ====\n" name;
          print_string c.Ub_backend.Compile.asm)
        (Lazy.force compiled));
    if obj_size then
      List.iter
        (fun (name, (c : Ub_backend.Compile.compiled)) ->
          Printf.printf "%s: %d bytes\n" name c.Ub_backend.Compile.obj_size)
        (Lazy.force compiled);
    if cycles then begin
      if Func.find_func m "main" = None then
        raise (Usage "--cycles needs a @main function to profile");
      let sim =
        Ub_core.Driver.price pipeline ~opt_ir:m ~compiled:(Lazy.force compiled) ~entry:"main"
          ~args:[]
      in
      Printf.printf "main: %s\n" (Ub_sem.Interp.outcome_to_string sim.outcome);
      Printf.printf "cycles[%s]: %.0f\n" Ub_backend.Target.machine1.prof_name sim.cycles_m1;
      Printf.printf "cycles[%s]: %.0f\n" Ub_backend.Target.machine2.prof_name sim.cycles_m2
    end;
    0
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile Mini-C or IR through the -O2 pipeline.")
    Term.(const run $ trace_arg $ pipeline_arg $ emit $ obj_size $ cycles $ file_arg)

(* Translation validation: IR functions against their own compilation. *)
let tv_cmd =
  let inject =
    Arg.(value & opt (some string) None
           & info [ "inject" ] ~docv:"BUG"
               ~doc:"Compile with an injected backend bug from the catalog in \
                     lib/backend/mir_inject.ml; the verdict should flip to \
                     'NOT refined' on a triggering function.")
  in
  let gen =
    Arg.(value & opt (some int) None
           & info [ "gen" ] ~docv:"N"
               ~doc:"Instead of reading FILE, generate $(docv) backend-shaped \
                     functions with the hunt generator and validate each.")
  in
  let seed =
    Arg.(value & opt int 20170601
           & info [ "seed" ] ~docv:"S" ~doc:"Generator seed for --gen.")
  in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run trace mode inject gen seed file =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    let bug =
      Option.map
        (fun name ->
          match Ub_backend.Mir_inject.find name with
          | Some b -> b
          | None ->
            raise
              (Usage
                 (Printf.sprintf "unknown backend bug %s (try: %s)" name
                    (String.concat ", "
                       (List.map
                          (fun (b : Ub_backend.Mir_inject.bug) ->
                            b.Ub_backend.Mir_inject.b_name)
                          Ub_backend.Mir_inject.all)))))
        inject
    in
    let funcs =
      match (gen, file) with
      | Some n, None ->
        let rng = Ub_support.Prng.create ~seed in
        List.init n (fun i ->
            Ub_fuzz.Gen.hunt_func rng ~name:(Printf.sprintf "g%d" i)
              { Ub_fuzz.Gen.default_hunt with Ub_fuzz.Gen.h_backend = true })
      | None, Some path -> (Parser.parse_module (read_file path)).Func.funcs
      | Some _, Some _ -> raise (Usage "--gen and FILE are mutually exclusive")
      | None, None -> raise (Usage "need either FILE or --gen N")
    in
    let bad = ref 0 in
    List.iter
      (fun (fn : Func.t) ->
        let v = Ub_backend.Tv.check_func ~mode ?bug fn in
        (match v with Ub_backend.Tv.Not_refined _ -> incr bad | _ -> ());
        Printf.printf "%s: %s\n" fn.Func.name (Ub_backend.Tv.verdict_to_string v))
      funcs;
    if !bad > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "tv"
       ~doc:"Translation-validate IR functions against their compiled MIR: \
             enumerate the behaviours of both and check that every machine \
             behaviour is covered by a source behaviour.")
    Term.(const run $ trace_arg $ mode_arg $ inject $ gen $ seed $ file)

let run_cmd =
  let entry =
    Arg.(value & opt string "main" & info [ "entry" ] ~docv:"F" ~doc:"Entry function.")
  in
  let run trace mode pipeline entry file =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    let m = load_module ~pipeline file in
    let fn = Func.find_func_exn m entry in
    let r = Ub_sem.Interp.run ~mode ~module_:m ~fuel:10_000_000 fn [] in
    Printf.printf "%s\n" (Ub_sem.Interp.outcome_to_string r.Ub_sem.Interp.outcome);
    0
  in
  Cmd.v (Cmd.info "run" ~doc:"Interpret a program under a semantics mode.")
    Term.(const run $ trace_arg $ mode_arg $ pipeline_arg $ entry $ file_arg)

let check_cmd =
  let tgt_arg =
    Arg.(value & pos 1 (some file) None
           & info [] ~docv:"TGT"
               ~doc:"Target function file. Omit it when FILE already holds both \
                     functions (source first, target second), e.g. a witness \
                     written by 'ubc hunt --corpus'.")
  in
  let run trace mode file tgt =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    let src, tgt = load_pair "check" (file :: Option.to_list tgt) in
    let v = Ub_refine.Checker.check mode ~src ~tgt in
    print_endline (Ub_refine.Checker.verdict_to_string v);
    if v = Ub_refine.Checker.Refines then 0 else 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Does TGT refine SRC under the given semantics mode?")
    Term.(const run $ trace_arg $ mode_arg $ file_arg $ tgt_arg)

let reduce_cmd =
  let tgt_arg =
    Arg.(value & pos 1 (some file) None
           & info [] ~docv:"TGT"
               ~doc:"Target function file. Omit it when FILE already holds both \
                     functions (source first, target second), e.g. a witness \
                     written by 'bench --corpus'.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
           & info [ "o" ] ~docv:"OUT" ~doc:"Also write the minimized witness module to $(docv).")
  in
  let run trace mode file tgt out =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    let src, tgt = load_pair "reduce" (file :: Option.to_list tgt) in
    match Ub_refine.Reduce.minimize_cex mode ~src ~tgt with
    | None ->
      Printf.printf "nothing to reduce: pair is not a counterexample under %s (%s)\n"
        mode.Ub_sem.Mode.name
        (Ub_refine.Checker.verdict_to_string (Ub_refine.Checker.check mode ~src ~tgt));
      1
    | Some r ->
      let text =
        Printer.witness_to_string
          ~header:
            [ "minimized counterexample"; "mode: " ^ mode.Ub_sem.Mode.name;
              Format.asprintf "%a" Ub_shrink.Reduce.pp_stats r.Ub_refine.Reduce.stats;
              "verdict: " ^ Ub_refine.Checker.verdict_to_string r.Ub_refine.Reduce.verdict ]
          ~tgt:r.Ub_refine.Reduce.red_tgt r.Ub_refine.Reduce.red_src
      in
      print_string text;
      Option.iter (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc text)) out;
      0
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Minimize a failing transform pair to a small counterexample witness.")
    Term.(const run $ trace_arg $ mode_arg $ file_arg $ tgt_arg $ out_arg)

let modes_cmd =
  let run () =
    List.iter (fun m -> print_endline (Ub_sem.Mode.describe m)) Ub_sem.Mode.all;
    0
  in
  Cmd.v (Cmd.info "modes" ~doc:"List the available semantics modes.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* serve: the long-lived refinement-checking daemon                    *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let jobs =
    Arg.(value & opt int 1
           & info [ "j"; "jobs" ] ~docv:"N"
               ~doc:"Checker worker processes, forked at startup and kept for the \
                     daemon's life; a worker that dies is respawned and only its \
                     in-flight requests answer 'crashed'. 1 checks in the daemon \
                     process itself.")
  in
  let queue =
    Arg.(value & opt int 64
           & info [ "queue"; "queue-depth" ] ~docv:"N"
               ~doc:"Admission-control bound: requests beyond $(docv) waiting are \
                     answered 'overloaded' instead of buffered. Echoed (with --jobs) \
                     in the hello handshake so clients can size their windows.")
  in
  let batch =
    Arg.(value & opt int 32
           & info [ "batch" ] ~docv:"N"
               ~doc:"Max tasks per in-process batch (--jobs 1).")
  in
  let deadline =
    Arg.(value & opt (some float) None
           & info [ "deadline" ] ~docv:"S"
               ~doc:"Default per-request deadline in seconds, applied when a request \
                     does not carry its own.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
           & info [ "cache" ] ~docv:"DIR"
               ~doc:"Persist verdicts in $(docv) (an append-only journal with \
                     fcntl-locked appends, safe under concurrent writers).")
  in
  let run trace socket jobs queue batch deadline cache_dir =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    if jobs < 1 then raise (Usage "serve: --jobs must be >= 1");
    if queue < 1 then raise (Usage "serve: --queue must be >= 1");
    if batch < 1 then raise (Usage "serve: --batch must be >= 1");
    check_deadline "serve" deadline;
    register_cleanup socket;
    let cache = Option.map Ub_exec.Cache.open_journal cache_dir in
    let cfg =
      { (Ub_serve.Server.default_config ~socket_path:socket) with
        Ub_serve.Server.jobs;
        queue_limit = queue;
        batch_max = batch;
        default_deadline_s = deadline;
        cache;
        verbose = true;
      }
    in
    Ub_serve.Server.run cfg;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent refinement-checking daemon on a Unix socket.")
    Term.(const run $ trace_arg $ socket_arg $ jobs $ queue $ batch $ deadline $ cache_dir)

(* ------------------------------------------------------------------ *)
(* submit: query a running daemon                                      *)
(* ------------------------------------------------------------------ *)

(* A reply as `ubc submit` prints it, and its exit code: 0 only for a
   clean "refines"; any other verdict or an overload is a verdict
   failure, anything else a protocol one. *)
let describe_reply (r : Ub_serve.Wire.reply) : string * int =
  let open Ub_serve.Wire in
  match r with
  | Verdict v ->
    ( (match v.result with
      | Ub_exec.Pool.Done c -> Ub_refine.Checker.verdict_to_string c
      | Ub_exec.Pool.Timed_out | Ub_exec.Pool.Crashed _ -> v.verdict ^ ": " ^ v.detail)
      ^ (if v.cached then " [cached]" else ""),
      if v.result = Ub_exec.Pool.Done Ub_refine.Checker.Refines then 0 else 1 )
  | Overloaded { queue_depth; queue_limit; _ } ->
    (Printf.sprintf "overloaded: queue %d/%d" queue_depth queue_limit, 1)
  | Error_r { message; _ } -> ("error: " ^ message, 3)
  | Hello_ok _ | Stats_r _ | Bye -> ("unexpected reply", 3)

let submit_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let deadline =
    Arg.(value & opt (some float) None
           & info [ "deadline" ] ~docv:"S" ~doc:"Per-request deadline in seconds.")
  in
  let count =
    Arg.(value & opt int 1
           & info [ "count" ] ~docv:"N"
               ~doc:"Send the query $(docv) times, pipelined (journal/overload \
                     exercise).")
  in
  let enum =
    Arg.(value & flag & info [ "enum" ] ~doc:"Force the enumeration checker.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the daemon's live stats report as JSON.")
  in
  let shutdown =
    Arg.(value & flag
           & info [ "shutdown" ] ~doc:"Ask the daemon to drain gracefully and exit.")
  in
  let run socket mode deadline count enum stats shutdown files =
    guard @@ fun () ->
    check_deadline "submit" deadline;
    let with_client f = Ub_serve.Client.with_conn ~socket_path:socket f in
    if stats then begin
      with_client (fun cl ->
          let s = Ub_serve.Client.stats cl in
          print_endline
            (Ub_serve.Json.to_string (Ub_serve.Wire.reply_to_json (Ub_serve.Wire.Stats_r s))));
      0
    end
    else if shutdown then begin
      let cl = Ub_serve.Client.connect ~socket_path:socket () in
      Ub_serve.Client.shutdown cl;
      0
    end
    else begin
      if count < 1 then raise (Usage "submit: --count must be >= 1");
      let src, tgt = load_pair "submit" files in
      let request i =
        Ub_serve.Wire.Check
          { Ub_serve.Wire.id = Some i;
            mode = mode.Ub_sem.Mode.name;
            src = Printer.func_to_string src;
            tgt = Printer.func_to_string tgt;
            deadline_s = deadline;
            enum_only = enum;
          }
      in
      with_client (fun cl ->
          (* pipeline the whole burst, then read every reply *)
          for i = 0 to count - 1 do
            Ub_serve.Client.send cl (request i)
          done;
          let code = ref 0 in
          for _ = 1 to count do
            match Ub_serve.Client.recv cl with
            | None -> raise (Ub_serve.Client.Server_error "server closed mid-burst")
            | Some r ->
              let text, rc = describe_reply r in
              print_endline text;
              code := max !code rc
          done;
          !code)
    end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit refinement queries to a running 'ubc serve' daemon.")
    Term.(const run $ socket_arg $ mode_arg $ deadline $ count $ enum $ stats $ shutdown
          $ files)

(* ------------------------------------------------------------------ *)
(* hunt: the miscompile hunting farm                                    *)
(* ------------------------------------------------------------------ *)

let hunt_cmd =
  let entries =
    Arg.(value & opt_all string []
           & info [ "entry" ] ~docv:"NAME"
               ~doc:"Run an isolated recall campaign for this injected-bug catalog \
                     entry (repeatable; see lib/opt/inject.ml). The campaign must \
                     rediscover the entry or the command fails.")
  in
  let all_entries =
    Arg.(value & flag
           & info [ "all-entries" ]
               ~doc:"Run a recall campaign for every catalog entry.")
  in
  let seed =
    Arg.(value & opt int 20170601
           & info [ "seed" ] ~docv:"N" ~doc:"Base PRNG seed (program i uses seed+i).")
  in
  let programs =
    Arg.(value & opt int 200
           & info [ "programs" ] ~docv:"N" ~doc:"Program budget per campaign.")
  in
  let jobs =
    Arg.(value & opt int 1
           & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Pool workers (1 = in-process); local campaigns only.")
  in
  let timeout =
    Arg.(value & opt (some float) None
           & info [ "timeout" ] ~docv:"S" ~doc:"Per-program pool timeout in seconds; local campaigns only.")
  in
  let stop_after =
    Arg.(value & opt (some int) None
           & info [ "stop-after" ] ~docv:"N"
               ~doc:"Stop a campaign early after $(docv) raw findings.")
  in
  let corpus =
    Arg.(value & opt (some string) None
           & info [ "corpus" ] ~docv:"DIR"
               ~doc:"Write one re-parsable witness .ll per unique finding into \
                     $(docv) (replay with 'ubc check --mode <mode> <file>').")
  in
  let out =
    Arg.(value & opt (some string) None
           & info [ "out" ] ~docv:"FILE" ~doc:"Write the campaign reports as JSON to $(docv).")
  in
  let socket =
    Arg.(value & opt (some string) None
           & info [ "socket" ] ~docv:"PATH"
               ~doc:"Route refinement checks through the 'ubc serve' daemon at $(docv) \
                     instead of checking in-process.")
  in
  let deadline =
    Arg.(value & opt (some float) None
           & info [ "deadline" ] ~docv:"S" ~doc:"Per-request daemon deadline in seconds.")
  in
  let batch =
    Arg.(value & opt int 32
           & info [ "batch" ] ~docv:"N" ~doc:"Pipelined daemon requests per round trip.")
  in
  let run trace mode entries all_entries seed programs jobs timeout stop_after corpus out
      socket deadline batch =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    if programs < 1 then raise (Usage "hunt: --programs must be >= 1");
    if jobs < 1 then raise (Usage "hunt: --jobs must be >= 1");
    if batch < 1 then raise (Usage "hunt: --batch must be >= 1");
    check_deadline "hunt" deadline;
    (* the daemon path checks in the daemon's workers, under its own
       deadline: refuse what it would ignore *)
    if socket <> None && jobs > 1 then
      raise (Usage "hunt: --jobs applies to local campaigns only, not with --socket");
    if socket <> None && timeout <> None then
      raise (Usage "hunt: --timeout applies to local campaigns only (use --deadline with --socket)");
    let remote =
      Option.map
        (fun s ->
          { (Ub_hunt.Hunt.default_remote ~socket:s) with Ub_hunt.Hunt.deadline_s = deadline; batch })
        socket
    in
    let entry_list =
      if all_entries then Ub_opt.Inject.all
      else
        List.map
          (fun n ->
            match Ub_opt.Inject.find n with
            | Some e -> e
            | None ->
              raise
                (Usage
                   (Printf.sprintf "hunt: unknown --entry %S\nvalid entries: %s" n
                      (String.concat ", " Ub_opt.Inject.names))))
          entries
    in
    let finalize (cfg : Ub_hunt.Hunt.config) =
      { cfg with Ub_hunt.Hunt.jobs; timeout_s = timeout; stop_after }
    in
    (* (campaign name, must_find, report) *)
    let results =
      match entry_list with
      | [] ->
        (* no entries: hunt the real prototype pipeline under --mode;
           any unique finding here is a live miscompilation *)
        let base = Ub_hunt.Hunt.clean_config ~seed ~programs in
        let cfg =
          finalize
            { base with
              Ub_hunt.Hunt.lanes = [ Ub_hunt.Hunt.fuzz_lane Ub_opt.Pass.prototype mode ];
            }
        in
        [ ("fuzz/" ^ mode.Ub_sem.Mode.name, false, Ub_hunt.Hunt.run ?remote cfg) ]
      | es ->
        List.map
          (fun (e : Ub_opt.Inject.entry) ->
            let cfg = finalize (Ub_hunt.Hunt.entry_config ~seed ~programs e) in
            (e.Ub_opt.Inject.name, true, Ub_hunt.Hunt.run ?remote cfg))
          es
    in
    List.iter
      (fun (name, _, rep) ->
        Format.printf "%s: %a@." name Ub_hunt.Hunt.pp_report rep;
        List.iter
          (fun (f : Ub_hunt.Hunt.finding) ->
            Format.printf "  %s %s (%d -> %d insns, %s)@."
              (String.sub f.Ub_hunt.Hunt.fp 0 12)
              f.Ub_hunt.Hunt.f_lane f.Ub_hunt.Hunt.orig_insns f.Ub_hunt.Hunt.final_insns
              f.Ub_hunt.Hunt.f_verdict)
          rep.Ub_hunt.Hunt.r_uniques)
      results;
    (match corpus with
    | None -> ()
    | Some dir ->
      List.iter
        (fun (name, _, rep) ->
          let sub = Filename.concat dir (Ub_hunt.Hunt.sanitize name) in
          let paths = Ub_hunt.Hunt.write_corpus ~dir:sub rep in
          Printf.printf "wrote %d witness file(s) under %s\n" (List.length paths) sub)
        results);
    (match out with
    | None -> ()
    | Some path ->
      Ub_obs.Json.to_file path
        (Ub_obs.Json.Obj
           (List.map (fun (name, _, rep) -> (name, Ub_hunt.Hunt.report_json rep)) results));
      Printf.printf "wrote %s\n" path);
    let missed =
      List.filter (fun (_, must, r) -> must && r.Ub_hunt.Hunt.r_unique = 0) results
    in
    let live =
      List.filter (fun (_, must, r) -> (not must) && r.Ub_hunt.Hunt.r_unique > 0) results
    in
    List.iter
      (fun (n, _, _) -> Printf.printf "RECALL MISS: %s not rediscovered\n" n)
      missed;
    List.iter
      (fun (n, _, (r : Ub_hunt.Hunt.report)) ->
        Printf.printf "MISCOMPILE: %s produced %d unique finding(s)\n" n
          r.Ub_hunt.Hunt.r_unique)
      live;
    if missed <> [] || live <> [] then 1 else 0
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Hunt for silent miscompiles: stream generated programs through \
             optimization lanes, check refinement, shrink and fingerprint failures.")
    Term.(const run $ trace_arg $ mode_arg $ entries $ all_entries $ seed $ programs
          $ jobs $ timeout $ stop_after $ corpus $ out $ socket $ deadline $ batch)

let () =
  install_signal_cleanup ();
  let info = Cmd.info "ubc" ~doc:"The taming-undefined-behavior compiler driver." in
  let group =
    Cmd.group info
      [ compile_cmd; tv_cmd; run_cmd; check_cmd; reduce_cmd; serve_cmd; submit_cmd;
        hunt_cmd; modes_cmd ]
  in
  (* Uniform exit codes: command bodies return 0/1 (and [guard] maps
     usage -> 2, internal -> 3); cmdliner's own CLI errors are usage. *)
  let code =
    match Cmd.eval_value group with
    | Ok (`Ok n) -> n
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 3
  in
  exit code
