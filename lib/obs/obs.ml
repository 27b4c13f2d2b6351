(* ub_obs: a zero-dependency structured-telemetry layer.

   Three primitives, all process-local and allocation-light:

   - spans     — [with_span name f] times [f] on the monotonic clock and
                 aggregates (count, total, max) per name;
   - counters  — [count name] bumps a named integer;
   - histograms — [observe name v] records a float into log2 buckets,
                 keeping count/sum/min/max for percentile estimates.

   Aggregation is always on (a hashtable bump per call — the
   instrumentation sites are coarse: per solver query, per pooled task,
   per optimizer pass, never per propagation).  Event *emission* is off
   by default: with the default [Null] sink, [with_span] costs two
   clock reads and one hashtable update, and no I/O ever happens.
   Installing a [Jsonl] sink (the `--trace FILE` flag) additionally
   streams one JSON line per span/event to the trace file.

   Forked workers cannot share the parent's trace channel (interleaved
   writes) — they call [child_begin] after the fork, which resets the
   registry and switches to an in-memory sink; [drain] then packages
   everything into a marshal-safe [payload] that the parent [absorb]s
   over its existing result channel.  See lib/exec/pool.ml.

   The run report ([report]) is the machine-readable aggregation of
   everything above: counters, span totals, histogram summaries, and a
   few derived rates (cache hit rate), as a [Json.t] value.  `bench`
   embeds it in its JSON output and writes it next to the trace file;
   the serve daemon returns it in its stats reply. *)

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

module Clock = struct
  external monotonic_ns : unit -> int64 = "ub_obs_monotonic_ns"

  (* Nanoseconds as a native int: 2^62 ns ≈ 146 years of uptime, so the
     conversion cannot truncate in practice. *)
  let now_ns () : int = Int64.to_int (monotonic_ns ())
  let now_s () : float = Int64.to_float (monotonic_ns ()) /. 1e9

  (* The one timing idiom every harness should use: elapsed seconds on
     the monotonic clock, immune to NTP steps and manual adjustments. *)
  let elapsed_s ~(since : float) : float = now_s () -. since
end

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type attr = S of string | I of int | F of float | B of bool

type event = {
  ev : string; (* "span" | "event" *)
  name : string;
  t_ns : int; (* monotonic start time *)
  dur_ns : int; (* -1 for instantaneous events *)
  depth : int; (* span nesting depth at emission *)
  attrs : (string * attr) list;
}

(* One trace line.  [dur_ns] is left out of instantaneous events. *)
let event_to_json (e : event) : string =
  let attr = function
    | S s -> Json.Str s
    | I i -> Json.int i
    | F f -> Json.Num f
    | B b -> Json.Bool b
  in
  Json.to_string
    (Json.Obj
       ([ ("ev", Json.Str e.ev); ("name", Json.Str e.name); ("t_ns", Json.int e.t_ns) ]
       @ (if e.dur_ns >= 0 then [ ("dur_ns", Json.int e.dur_ns) ] else [])
       @ (("depth", Json.int e.depth) :: List.map (fun (k, v) -> (k, attr v)) e.attrs)))

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink =
  | Null
  | Jsonl of out_channel
  | Memory of event list ref (* newest first; [drain] reverses *)

let current_sink = ref Null

let emit (e : event) : unit =
  match !current_sink with
  | Null -> ()
  | Jsonl oc ->
    output_string oc (event_to_json e);
    output_char oc '\n'
  | Memory buf -> buf := e :: !buf

let tracing () = match !current_sink with Null -> false | Jsonl _ | Memory _ -> true

let set_sink s = current_sink := s

let set_trace (path : string) : unit =
  (match !current_sink with Jsonl oc -> close_out_noerr oc | _ -> ());
  current_sink := Jsonl (open_out path)

let close () : unit =
  (match !current_sink with Jsonl oc -> close_out_noerr oc | _ -> ());
  current_sink := Null

(* ------------------------------------------------------------------ *)
(* Aggregation registry                                                *)
(* ------------------------------------------------------------------ *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  buckets : int array; (* log2 buckets: index = clamp(exp2 + 30, 0, 63) *)
}

type span_agg = {
  mutable s_count : int;
  mutable s_total_ns : int;
  mutable s_max_ns : int;
}

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64
let hists : (string, hist) Hashtbl.t = Hashtbl.create 64
let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 64
let span_depth = ref 0

let count ?(by = 1) (name : string) : unit =
  match Hashtbl.find_opt counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace counters name (ref by)

let counter_value (name : string) : int =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

let bucket_of (v : float) : int =
  if v <= 0.0 then 0
  else begin
    let e = int_of_float (Float.floor (Float.log2 v)) in
    let i = e + 30 in
    if i < 0 then 0 else if i > 63 then 63 else i
  end

let observe (name : string) (v : float) : unit =
  let h =
    match Hashtbl.find_opt hists name with
    | Some h -> h
    | None ->
      let h =
        { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
          buckets = Array.make 64 0 }
      in
      Hashtbl.replace hists name h;
      h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

(* Percentile estimate from the log2 buckets: the upper bound of the
   bucket holding the q-quantile observation.  Coarse (factor-of-two
   resolution) but monotone and cheap, which is all a run report needs. *)
let hist_quantile (h : hist) (q : float) : float =
  if h.h_count = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 and result = ref h.h_max in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= rank then begin
             result := Float.pow 2.0 (float_of_int (i - 30 + 1));
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    (* never report a quantile outside the observed range *)
    if !result > h.h_max then h.h_max else if !result < h.h_min then h.h_min else !result
  end

let span_agg_of (name : string) : span_agg =
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
    let s = { s_count = 0; s_total_ns = 0; s_max_ns = 0 } in
    Hashtbl.replace spans name s;
    s

let record_span (name : string) ~(dur_ns : int) : unit =
  let s = span_agg_of name in
  s.s_count <- s.s_count + 1;
  s.s_total_ns <- s.s_total_ns + dur_ns;
  if dur_ns > s.s_max_ns then s.s_max_ns <- dur_ns

let with_span ?(attrs : (string * attr) list = []) (name : string) (f : unit -> 'a) : 'a =
  let t0 = Clock.now_ns () in
  incr span_depth;
  Fun.protect
    ~finally:(fun () ->
      decr span_depth;
      let dur = Clock.now_ns () - t0 in
      record_span name ~dur_ns:dur;
      if tracing () then
        emit { ev = "span"; name; t_ns = t0; dur_ns = dur; depth = !span_depth; attrs })
    f

(* An instantaneous event (task lifecycle, worker crash, ...): counted
   always, emitted to the trace when one is active. *)
let event ?(attrs : (string * attr) list = []) (name : string) : unit =
  count name;
  if tracing () then
    emit
      { ev = "event"; name; t_ns = Clock.now_ns (); dur_ns = -1; depth = !span_depth; attrs }

(* ------------------------------------------------------------------ *)
(* Fork-safe forwarding                                                *)
(* ------------------------------------------------------------------ *)

type payload = {
  p_events : event list;
  p_counters : (string * int) list;
  p_hists : (string * (int * float * float * float * int array)) list;
  p_spans : (string * (int * int * int)) list;
}

let reset () : unit =
  Hashtbl.reset counters;
  Hashtbl.reset hists;
  Hashtbl.reset spans;
  span_depth := 0;
  (match !current_sink with Memory buf -> buf := [] | _ -> ())

(* To be called in a forked child before it runs any task: the parent's
   aggregates must not be double-counted when the child's are absorbed,
   and the parent's trace channel must not see interleaved writes. *)
let child_begin () : unit =
  current_sink := Memory (ref []);
  Hashtbl.reset counters;
  Hashtbl.reset hists;
  Hashtbl.reset spans;
  span_depth := 0

(* Package and clear everything recorded since [child_begin] (or the
   last [drain]).  The result is marshal-safe. *)
let drain () : payload =
  let evts = match !current_sink with Memory buf -> List.rev !buf | _ -> [] in
  let p =
    { p_events = evts;
      p_counters = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters [];
      p_hists =
        Hashtbl.fold
          (fun k h acc -> (k, (h.h_count, h.h_sum, h.h_min, h.h_max, Array.copy h.buckets)) :: acc)
          hists [];
      p_spans =
        Hashtbl.fold (fun k s acc -> (k, (s.s_count, s.s_total_ns, s.s_max_ns)) :: acc)
          spans [];
    }
  in
  Hashtbl.reset counters;
  Hashtbl.reset hists;
  Hashtbl.reset spans;
  (match !current_sink with Memory buf -> buf := [] | _ -> ());
  p

(* Merge a child's payload into this process: re-emit its events into
   our sink (annotated with [attrs], e.g. the worker it came from) and fold its
   aggregates into the registry. *)
let absorb ?(attrs : (string * attr) list = []) (p : payload) : unit =
  if tracing () then List.iter (fun e -> emit { e with attrs = e.attrs @ attrs }) p.p_events;
  List.iter (fun (k, v) -> count ~by:v k) p.p_counters;
  List.iter
    (fun (k, (c, sum, mn, mx, buckets)) ->
      if c > 0 then begin
        let h =
          match Hashtbl.find_opt hists k with
          | Some h -> h
          | None ->
            let h =
              { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
                buckets = Array.make 64 0 }
            in
            Hashtbl.replace hists k h;
            h
        in
        h.h_count <- h.h_count + c;
        h.h_sum <- h.h_sum +. sum;
        if mn < h.h_min then h.h_min <- mn;
        if mx > h.h_max then h.h_max <- mx;
        Array.iteri (fun i n -> h.buckets.(i) <- h.buckets.(i) + n) buckets
      end)
    p.p_hists;
  List.iter
    (fun (k, (c, total, mx)) ->
      if c > 0 then begin
        let s = span_agg_of k in
        s.s_count <- s.s_count + c;
        s.s_total_ns <- s.s_total_ns + total;
        if mx > s.s_max_ns then s.s_max_ns <- mx
      end)
    p.p_spans

(* ------------------------------------------------------------------ *)
(* The run report                                                      *)
(* ------------------------------------------------------------------ *)

let sorted_bindings (tbl : (string, 'a) Hashtbl.t) : (string * 'a) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let report () : Json.t =
  let section tbl f = Json.Obj (List.map (fun (k, v) -> (k, f v)) (sorted_bindings tbl)) in
  let secs ns = Json.Num (float_of_int ns /. 1e9) in
  let hit = counter_value "verdict_cache.hit" and miss = counter_value "verdict_cache.miss" in
  let rate = if hit + miss = 0 then 0.0 else float_of_int hit /. float_of_int (hit + miss) in
  Json.Obj
    [ ("schema", Json.Str "ubc-obs-report-v1");
      ("counters", section counters (fun r -> Json.int !r));
      ( "spans",
        section spans (fun s ->
            Json.Obj
              [ ("count", Json.int s.s_count); ("total_s", secs s.s_total_ns);
                ("max_s", secs s.s_max_ns) ]) );
      ( "histograms",
        section hists (fun h ->
            let seen v = Json.Num (if h.h_count = 0 then 0.0 else v) in
            Json.Obj
              [ ("count", Json.int h.h_count); ("sum", Json.Num h.h_sum); ("min", seen h.h_min);
                ("max", seen h.h_max); ("p50", Json.Num (hist_quantile h 0.5));
                ("p90", Json.Num (hist_quantile h 0.9)) ]) );
      (* derived rates the acceptance criteria care about *)
      ( "derived",
        Json.Obj
          (("verdict_cache_hit_rate", Json.Num rate)
          :: List.map
               (fun (k, n) -> (k, Json.int n))
               [ ("verdict_cache_lookups", hit + miss);
                 ( "pool_tasks",
                   counter_value "pool.task_done" + counter_value "pool.task_crashed"
                   + counter_value "pool.task_timeout" );
                 ("pool_crashes", counter_value "pool.task_crashed");
                 ("pool_timeouts", counter_value "pool.task_timeout");
                 ("hunt_programs", counter_value "hunt.program");
                 ("hunt_findings", counter_value "hunt.finding");
                 ("hunt_unique", counter_value "hunt.unique");
                 ("hunt_dropped", counter_value "hunt.dropped");
                 ("interp_runs", counter_value "interp.runs");
                 ("enum_tgt_skipped", counter_value "refine.enum_tgt_skipped");
                 ("tv_checked", counter_value "tv.checked");
                 ("tv_mir_runs", counter_value "tv.mir_runs");
                 ("tv_refined", counter_value "tv.refined");
                 ("tv_violations", counter_value "tv.violations");
                 ("tv_unsupported", counter_value "tv.unsupported");
                 ("tv_inert", counter_value "tv.inert") ]) );
    ]

let write_report (path : string) : unit = Json.to_file path (report ())
