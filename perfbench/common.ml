(* Plumbing shared by the four workloads: the clock, exact percentiles,
   peak memory, verdict classes, the per-run tally, counterexample
   replay through the enumeration checker, the outside choice-counting
   pass, and the per-layer readout of the Obs registry. *)

open Ub_ir
open Ub_sem
module Obs = Ub_obs.Obs
module Checker = Ub_refine.Checker
module Enum_check = Ub_refine.Enum_check
module Encode = Ub_refine.Encode
module Json = Ub_serve.Json

let now () = Obs.Clock.now_s ()

(* Nearest-rank percentile of an ascending array. *)
let percentile (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* VmHWM of a process in MiB, from /proc; 0 when unreadable. *)
let peak_rss_mb (pid : int) : float =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)
(* ------------------------------------------------------------------ *)

(* On a shared virtual machine the speed of the CPU can shift by a third
   or more within seconds, for as long as minutes, and a run of a few
   seconds may lie wholly inside one such stretch.  So every reported
   time is scaled to a reference speed: a fixed calibration kernel,
   which uses none of the code under test, is timed between units (or
   between passes), and a time measured at instant t is multiplied by
   [reference_s] over the kernel's median time near t.  A change to the
   checker moves the measured times and not the kernel's, so the scaled
   figures still show it. *)
module Calib = struct
  module Imap = Map.Make (Int)

  (* Building a persistent balanced tree of short strings: allocation,
     pointer chasing and minor collections, the kind of work the checker
     does.  Of the kernels tried, this one's time tracked the checker's
     most closely as the machine's speed shifted (correlation 0.94 over
     one-second windows of expand units, against 0.89 for hashing and
     array arithmetic and 0.58 for random reads of an 8 MiB array).
     About a millisecond. *)
  let kernel () : int =
    let m = ref Imap.empty in
    for i = 0 to 2199 do
      m := Imap.add (i * 7919 land 65535) (string_of_int i) !m
    done;
    Imap.cardinal !m

  (* The kernel's nominal time: scaled figures read as if the kernel
     took exactly this long. *)
  let reference_s = 1e-3

  (* (instant, kernel seconds) of every probe, in time order *)
  let at = ref (Array.make 1024 0.0)
  let took = ref (Array.make 1024 0.0)
  let n = ref 0
  let last = ref neg_infinity

  let probe () =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = now () in
    if !n = Array.length !at then begin
      at := Array.append !at (Array.make !n 0.0);
      took := Array.append !took (Array.make !n 0.0)
    end;
    !at.(!n) <- (t0 +. t1) /. 2.0;
    !took.(!n) <- t1 -. t0;
    incr n;
    last := t1

  let probes (k : int) =
    for _ = 1 to k do
      probe ()
    done

  (* Probe when [every] seconds have passed since the last probe. *)
  let every = 0.05

  let maybe_probe () = if now () -. !last >= every then probe ()

  (* How many probes, the nearest to an instant, set its speed. *)
  let near = 8

  (* [x] seconds measured around instant [t], at reference speed. *)
  let scale ~(t : float) (x : float) : float =
    if !n = 0 then x
    else begin
      (* the first probe at or after t *)
      let lo = ref 0 and hi = ref !n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if !at.(mid) < t then lo := mid + 1 else hi := mid
      done;
      let i = ref (!lo - 1) and j = ref !lo and picked = ref [] in
      while List.length !picked < near && (!i >= 0 || !j < !n) do
        if !j >= !n || (!i >= 0 && t -. !at.(!i) <= !at.(!j) -. t) then begin
          picked := !took.(!i) :: !picked;
          decr i
        end
        else begin
          picked := !took.(!j) :: !picked;
          incr j
        end
      done;
      x *. reference_s /. median !picked
    end
end

(* ------------------------------------------------------------------ *)
(* Verdict classes                                                     *)
(* ------------------------------------------------------------------ *)

type cls = Refines | Cex | Unknown

let cls_name = function Refines -> "refines" | Cex -> "counterexample" | Unknown -> "unknown"

let cls_of_name = function
  | "refines" -> Some Refines
  | "counterexample" -> Some Cex
  | "unknown" -> Some Unknown
  | _ -> None

let cls_of_verdict = function
  | Checker.Refines -> Refines
  | Checker.Counterexample _ -> Cex
  | Checker.Unknown _ -> Unknown

(* Classify an Unknown's free-form reason by what ran out.  The checker
   folds the SAT reason first ("SAT: <reason>; enumeration: ..."), so the
   first matching phrase names the budget that stopped the SAT path. *)
let unknown_reason (r : string) : string =
  let has sub =
    let n = String.length sub and m = String.length r in
    let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
    go 0
  in
  if has "bits of nondeterministic choice" then "budget_bits"
  else if has "SAT budget exceeded" then "conflicts"
  else "unsupported"

(* ------------------------------------------------------------------ *)
(* The per-run tally                                                   *)
(* ------------------------------------------------------------------ *)

(* Units are measured in passes, and a pass covers the same units in
   every run, so end-to-end figures are medians over passes: a pass's
   throughput, and each unit's latency across passes, both at reference
   speed (see [Calib]). *)
type pass = {
  p_t0 : float;
  p_t1 : float;
  p_serial : bool; (* units ran one at a time *)
  p_units : (int * float * float) list; (* unit index, instant, measured ms *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable decided : int;
  mutable want_cex : int; (* units whose expected answer is a counterexample *)
  mutable got_cex : int; (* ... answered with a confirmed counterexample *)
  mutable cur : (int * float * float) list;
      (* the pass under way: unit index, instant, measured ms *)
  mutable passes : pass list;
  mutable wall_s : float; (* timed wall clock, as measured *)
  unknowns : (string, int) Hashtbl.t; (* reason class -> count *)
  mutable notes : string list; (* first few failures, for stderr *)
}

let new_tally () =
  { attempted = 0;
    failed = 0;
    decided = 0;
    want_cex = 0;
    got_cex = 0;
    cur = [];
    passes = [];
    wall_s = 0.0;
    unknowns = Hashtbl.create 4;
    notes = [];
  }

(* Close the pass under way, which ran from [t0] to [t1]. *)
let end_pass ?(serial = true) (t : tally) ~(t0 : float) ~(t1 : float) =
  t.passes <- { p_t0 = t0; p_t1 = t1; p_serial = serial; p_units = t.cur } :: t.passes;
  t.cur <- [];
  t.wall_s <- t.wall_s +. (t1 -. t0)

(* A pass's time and its units' latencies (ms) at reference speed, read
   once the run's probes are all taken.  Where units ran one at a time
   ([p_serial]), each is scaled at its own instant and the pass's time
   is the sum of its units'; where they overlap, the whole pass is
   scaled at its midpoint. *)
let pass_lat (p : pass) : (int * float) list =
  let mid = (p.p_t0 +. p.p_t1) /. 2.0 in
  List.map (fun (i, at, ms) -> (i, Calib.scale ~t:(if p.p_serial then at else mid) ms)) p.p_units

let pass_wall (p : pass) : float =
  if p.p_serial then List.fold_left (fun s (_, ms) -> s +. ms) 0.0 (pass_lat p) /. 1000.0
  else Calib.scale ~t:((p.p_t0 +. p.p_t1) /. 2.0) (p.p_t1 -. p.p_t0)

(* A unit that has just taken [ms]. *)
let latency (t : tally) ~(idx : int) ~(ms : float) =
  t.cur <- (idx, now () -. (ms /. 2000.0), ms) :: t.cur

(* Units per second: the median over passes where units ran one at a
   time and every pass repeats the same units; otherwise (serve, whose
   passes follow one another through the daemon's life) over the whole
   run. *)
let throughput (t : tally) : float =
  let rate ps =
    float_of_int (List.fold_left (fun n p -> n + List.length p.p_units) 0 ps)
    /. List.fold_left (fun s p -> s +. pass_wall p) 0.0 ps
  in
  if List.for_all (fun p -> p.p_serial) t.passes then median (List.map (fun p -> rate [ p ]) t.passes)
  else rate t.passes

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The [q] latency percentile (ms), over each unit's median across the
   passes that measured it. *)
let latency_pct (t : tally) (q : float) : float =
  let by_unit = Hashtbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun (i, ms) ->
          Hashtbl.replace by_unit i (ms :: Option.value ~default:[] (Hashtbl.find_opt by_unit i)))
        (pass_lat p))
    t.passes;
  percentile (sorted (Hashtbl.fold (fun _ ms acc -> median ms :: acc) by_unit [])) q

let note (t : tally) (msg : string) =
  if List.length t.notes < 8 then t.notes <- msg :: t.notes

let fail (t : tally) ?(n = 1) (msg : string) =
  t.failed <- t.failed + n;
  note t msg

let count_unknown (t : tally) (reason : string) =
  let k = unknown_reason reason in
  Hashtbl.replace t.unknowns k (1 + Option.value ~default:0 (Hashtbl.find_opt t.unknowns k))

(* Record one unit answered with verdict class [got] against [want]. *)
let record (t : tally) ~(label : string) ~(idx : int) ~(want : cls) ~(got : cls) ~(ms : float) =
  t.attempted <- t.attempted + 1;
  latency t ~idx ~ms;
  if got <> Unknown then t.decided <- t.decided + 1;
  if want = Cex then t.want_cex <- t.want_cex + 1;
  if got = Cex && want = Cex then t.got_cex <- t.got_cex + 1;
  if got <> want then
    fail t (Printf.sprintf "%s: expected %s, got %s" label (cls_name want) (cls_name got))

(* ------------------------------------------------------------------ *)
(* Independent confirmation                                            *)
(* ------------------------------------------------------------------ *)

(* A counterexample is confirmed when concrete enumeration on exactly
   its arguments also finds a target behaviour the source cannot
   produce. *)
let replay_cex (mode : Mode.t) ~(src : Func.t) ~(tgt : Func.t) (args : Value.t list) : bool =
  match Enum_check.check ~mode ~inputs:[ args ] ~src ~tgt () with
  | Enum_check.Counterexample _ -> true
  | Enum_check.Refines | Enum_check.Unknown _ -> false
  | exception _ -> false

(* Arguments as the serve wire prints them, back to values. *)
let value_of_string (ty : Types.t) (s : string) : Value.t option =
  match (s, ty) with
  | "poison", _ -> Some (Value.Scalar Value.Poison)
  | "undef", _ -> Some (Value.Scalar Value.Undef)
  | _, Types.Int w -> (
    match Ub_support.Bitvec.of_string ~width:w s with
    | bv -> Some (Value.Scalar (Value.Conc bv))
    | exception _ -> None)
  | _ -> None

(* The enumeration verdict class of a pair, for pinning expected
   answers when a pool is generated. *)
let enum_class (mode : Mode.t) ~(src : Func.t) ~(tgt : Func.t) : cls =
  match Enum_check.check ~mode ~src ~tgt () with
  | Enum_check.Refines -> Refines
  | Enum_check.Counterexample _ -> Cex
  | Enum_check.Unknown _ -> Unknown

(* ------------------------------------------------------------------ *)
(* The outside counting pass                                           *)
(* ------------------------------------------------------------------ *)

(* Bits of universal (source) choice, counted the way the checker's
   first pass does: one encode with [Checker.counting_choices]. *)
let choice_bits (mode : Mode.t) (src : Func.t) : int =
  let module C = Ub_smt.Circuit in
  let ctx = C.create_ctx () in
  let args =
    List.map
      (fun (v, ty) ->
        let w = Encode.int_width ty in
        ( v,
          { Encode.v = Ub_smt.Bvterm.fresh ctx ~width:w;
            p = C.fresh ctx;
            u = (if mode.Mode.undef_enabled then C.fresh ctx else C.bfalse);
          } ))
      src.Func.args
  in
  let trace = ref [] in
  ignore (Encode.encode ctx mode (Checker.counting_choices ctx trace) ~args src);
  List.fold_left (fun n -> function Some w -> n + w | None -> n) 0 !trace

(* ------------------------------------------------------------------ *)
(* Per-layer readout                                                   *)
(* ------------------------------------------------------------------ *)

(* What a layer kept, read back by name from an Obs report: the
   in-process registry, or the daemon's report from [Client.stats]. *)
type layers = {
  span_s : string -> float; (* total seconds *)
  span_n : string -> int; (* number of spans *)
  counter : string -> int;
  hist_sum : string -> float;
  hist_n : string -> int;
  hist_p50 : string -> float;
}

(* A snapshot of the in-process registry: later work (replays, the
   counting pass) does not leak into it. *)
let local_layers () : layers =
  let copy tbl f = Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [] in
  let spans = copy Obs.spans (fun s -> (float_of_int s.Obs.s_total_ns /. 1e9, s.Obs.s_count)) in
  let counters = copy Obs.counters (fun r -> !r) in
  let hists = copy Obs.hists (fun h -> (h.Obs.h_sum, h.Obs.h_count, Obs.hist_quantile h 0.5)) in
  let get tbl name f zero = match List.assoc_opt name tbl with Some v -> f v | None -> zero in
  { span_s = (fun n -> get spans n fst 0.0);
    span_n = (fun n -> get spans n snd 0);
    counter = (fun n -> get counters n Fun.id 0);
    hist_sum = (fun n -> get hists n (fun (s, _, _) -> s) 0.0);
    hist_n = (fun n -> get hists n (fun (_, c, _) -> c) 0);
    hist_p50 = (fun n -> get hists n (fun (_, _, p) -> p) 0.0);
  }

let report_layers (report : Json.t) : layers =
  let field sect name key =
    match Json.member sect report with
    | Some s -> ( match Json.member name s with Some o -> Json.num_field o key | None -> None)
    | None -> None
  in
  let num sect name key = Option.value ~default:0.0 (field sect name key) in
  { span_s = (fun n -> num "spans" n "total_s");
    span_n = (fun n -> int_of_float (num "spans" n "count"));
    counter =
      (fun n ->
        match Json.member "counters" report with
        | Some c -> Option.value ~default:0 (Json.int_field c n)
        | None -> 0);
    hist_sum = (fun n -> num "histograms" n "sum");
    hist_n = (fun n -> int_of_float (num "histograms" n "count"));
    hist_p50 = (fun n -> num "histograms" n "p50");
  }

(* What happened between two reports of the same process. *)
let delta_layers ~(before : layers) ~(after : layers) : layers =
  { span_s = (fun n -> after.span_s n -. before.span_s n);
    span_n = (fun n -> after.span_n n - before.span_n n);
    counter = (fun n -> after.counter n - before.counter n);
    hist_sum = (fun n -> after.hist_sum n -. before.hist_sum n);
    hist_n = (fun n -> after.hist_n n - before.hist_n n);
    hist_p50 = after.hist_p50;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let result_line ~(correct : bool) ~(attempted : int) ~(failed : int) (ms : metric list) : string =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun x -> (x.m_name, Json.Obj [ ("value", Json.Num x.m_value); ("unit", Json.Str x.m_unit) ]))
                ms) );
       ])
