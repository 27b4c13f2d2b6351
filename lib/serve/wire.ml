(* The serve wire protocol: length-prefixed, versioned JSON frames over
   a Unix-domain socket.

   Frame layout (both directions):

     +----------------+----------------------+
     | u32 big-endian |  payload (JSON text) |
     +----------------+----------------------+

   The length counts payload bytes only.  Frames above [max_frame_bytes]
   are rejected without buffering: an oversized length prefix is a
   protocol error and the connection is closed (there is no way to
   resync a framed stream after a bad prefix).

   Every connection starts with a [Hello] / [Hello_ok] handshake that
   pins [version]; a server that does not speak the client's version
   replies [Error] and closes.  Request/reply payloads are JSON objects
   whose "op" field selects the variant; unknown fields are ignored so
   the protocol can grow without a version bump, and unknown "op"s are
   [Error]s, not crashes.  Requests may carry a numeric "id" that the
   server echoes in the matching reply, so clients can pipeline
   requests and match replies out of order (with persistent workers,
   replies to one connection are not necessarily in request order).

   Version 2 dropped version 1's [enum_check] and [check_pair] ops: a
   version-1 client that sends them would get errors, so the handshake
   refuses it up front.  Version 3 sends a verdict as the object of
   the verdict codec ([Ub_refine.Verdict_cache.to_json]) in place of
   version 2's three strings, and adds [service_s]. *)

module Verdict_cache = Ub_refine.Verdict_cache

let version = 3
let max_frame_bytes = 8 * 1024 * 1024

(* A deadline is a number of seconds in (0, max_deadline_s].  The timer
   behind it refuses negative and huge values, and 0 would disarm it;
   NaN and the infinities fail both comparisons. *)
let max_deadline_s = 86400.0
let valid_deadline s = s > 0.0 && s <= max_deadline_s

(* ------------------------------------------------------------------ *)
(* Protocol types                                                      *)
(* ------------------------------------------------------------------ *)

(* One check: [Checker.check] (SAT with enumeration fallback), or
   enumeration only when [enum_only]. *)
type check_req = {
  id : int option;
  mode : string; (* semantics mode name; validated server-side *)
  src : string; (* source function, IR text *)
  tgt : string; (* target function, IR text *)
  deadline_s : float option; (* per-request wall-clock budget *)
  enum_only : bool; (* optional on the wire; absent means false *)
}

type request =
  | Hello of { v : int; client : string }
  | Check of check_req
  | Stats
  | Shutdown

type verdict_reply = {
  r_id : int option;
  result : Verdict_cache.outcome;
  cached : bool; (* served straight from the verdict cache *)
  wall_s : float; (* server-side queue wait + check *)
  service_s : float; (* the check alone; 0 when [cached] *)
  (* Derived from [result] for readers of the version-2 fields: *)
  verdict : string; (* [Verdict_cache.kind] *)
  detail : string; (* witness / reason; "" when refines *)
  args : string list; (* counterexample argument values, printed *)
  coalesced : bool; (* always false *)
}

type stats_reply = {
  queue_depth : int;
  queue_limit : int;
  uptime_s : float;
  served : int;
  rejected : int;
  timeouts : int;
  cache_hit_rate : float;
  cache_hits : int; (* verdict-cache lookups answered from the journal *)
  cache_misses : int; (* lookups that fell through to a real check *)
  server : string; (* the server's self-description, as in hello_ok *)
  verdicts : (string * int) list; (* verdict kind -> count *)
  report : Json.t; (* the full ubc-obs-report-v1 object *)
}

type reply =
  | Hello_ok of { v : int; server : string; jobs : int; queue_limit : int }
    (* jobs/queue_limit echo the server's tuning *)
  | Verdict of verdict_reply
  | Overloaded of { r_id : int option; queue_depth : int; queue_limit : int }
  | Stats_r of stats_reply
  | Error_r of { r_id : int option; message : string }
  | Bye

let make_verdict ~r_id ~cached ~wall_s ~service_s (result : Verdict_cache.outcome) =
  let detail, args =
    match result with
    | Ub_exec.Pool.Done (Ub_refine.Checker.Counterexample { args; witness }) ->
      (witness, List.map Ub_sem.Value.to_string args)
    | Ub_exec.Pool.Done (Ub_refine.Checker.Unknown r) | Ub_exec.Pool.Crashed r -> (r, [])
    | Ub_exec.Pool.Done Ub_refine.Checker.Refines -> ("", [])
    | Ub_exec.Pool.Timed_out -> ("deadline exceeded", [])
  in
  let verdict = Verdict_cache.kind result in
  Verdict { r_id; result; cached; wall_s; service_s; verdict; detail; args; coalesced = false }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let opt_id_field id rest =
  match id with None -> rest | Some i -> ("id", Json.int i) :: rest

let opt_deadline_field d rest =
  match d with None -> rest | Some s -> ("deadline_s", Json.Num s) :: rest

let request_to_json : request -> Json.t = function
  | Hello { v; client } ->
    Json.Obj
      [ ("op", Json.Str "hello"); ("v", Json.int v); ("client", Json.Str client) ]
  | Check c ->
    Json.Obj
      (("op", Json.Str "check")
      :: opt_id_field c.id
           (opt_deadline_field c.deadline_s
              ([ ("mode", Json.Str c.mode); ("src", Json.Str c.src); ("tgt", Json.Str c.tgt) ]
              @ if c.enum_only then [ ("enum_only", Json.Bool true) ] else [])))
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let reply_to_json : reply -> Json.t = function
  | Hello_ok { v; server; jobs; queue_limit } ->
    Json.Obj
      [ ("op", Json.Str "hello_ok"); ("v", Json.int v);
        ("server", Json.Str server); ("jobs", Json.int jobs);
        ("queue_limit", Json.int queue_limit) ]
  | Verdict r ->
    Verdict_cache.to_json r.result
      ~extra:
        (("op", Json.Str "verdict")
        :: opt_id_field r.r_id
             [ ("cached", Json.Bool r.cached); ("wall_s", Json.Num r.wall_s);
               ("service_s", Json.Num r.service_s) ])
  | Overloaded { r_id; queue_depth; queue_limit } ->
    Json.Obj
      (("op", Json.Str "overloaded")
      :: opt_id_field r_id
           [ ("queue_depth", Json.int queue_depth);
             ("queue_limit", Json.int queue_limit) ])
  | Stats_r s ->
    Json.Obj
      [ ("op", Json.Str "stats");
        ("queue_depth", Json.int s.queue_depth);
        ("queue_limit", Json.int s.queue_limit);
        ("uptime_s", Json.Num s.uptime_s);
        ("served", Json.int s.served);
        ("rejected", Json.int s.rejected);
        ("timeouts", Json.int s.timeouts);
        ("cache_hit_rate", Json.Num s.cache_hit_rate);
        ("cache_hits", Json.int s.cache_hits);
        ("cache_misses", Json.int s.cache_misses);
        ("server", Json.Str s.server);
        ("verdicts", Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) s.verdicts));
        ("report", s.report);
      ]
  | Error_r { r_id; message } ->
    Json.Obj (("op", Json.Str "error") :: opt_id_field r_id [ ("message", Json.Str message) ])
  | Bye -> Json.Obj [ ("op", Json.Str "bye") ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let required what = function Some v -> Ok v | None -> Error ("missing field " ^ what)

let ( let* ) = Result.bind

let decode_deadline (j : Json.t) : (float option, string) result =
  match Json.member "deadline_s" j with
  | None -> Ok None
  | Some v -> (
    match Json.to_num v with
    | Some s when valid_deadline s -> Ok (Some s)
    | _ -> Error (Printf.sprintf "deadline_s must be a number of seconds in (0, %g]" max_deadline_s))

let decode_check (j : Json.t) : (check_req, string) result =
  let* mode = required "mode" (Json.str_field j "mode") in
  let* src = required "src" (Json.str_field j "src") in
  let* tgt = required "tgt" (Json.str_field j "tgt") in
  let* deadline_s = decode_deadline j in
  let* enum_only =
    match Json.member "enum_only" j with
    | None -> Ok false
    | Some v -> Option.to_result ~none:"enum_only must be a boolean" (Json.to_bool v)
  in
  Ok { id = Json.int_field j "id"; mode; src; tgt; deadline_s; enum_only }

let request_of_json (j : Json.t) : (request, string) result =
  match Json.str_field j "op" with
  | None -> Error "missing op"
  | Some "hello" ->
    let* v = required "v" (Json.int_field j "v") in
    Ok (Hello { v; client = Option.value ~default:"" (Json.str_field j "client") })
  | Some "check" ->
    let* c = decode_check j in
    Ok (Check c)
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error ("unknown op " ^ op)

let reply_of_json (j : Json.t) : (reply, string) result =
  match Json.str_field j "op" with
  | None -> Error "missing op"
  | Some "hello_ok" ->
    let* v = required "v" (Json.int_field j "v") in
    let* server = required "server" (Json.str_field j "server") in
    let* jobs = required "jobs" (Json.int_field j "jobs") in
    let* queue_limit = required "queue_limit" (Json.int_field j "queue_limit") in
    Ok (Hello_ok { v; server; jobs; queue_limit })
  | Some "verdict" ->
    let* result = Verdict_cache.of_json j in
    let* cached = required "cached" (Json.bool_field j "cached") in
    let* wall_s = required "wall_s" (Json.num_field j "wall_s") in
    let* service_s = required "service_s" (Json.num_field j "service_s") in
    Ok (make_verdict ~r_id:(Json.int_field j "id") ~cached ~wall_s ~service_s result)
  | Some "overloaded" ->
    let* queue_depth = required "queue_depth" (Json.int_field j "queue_depth") in
    let* queue_limit = required "queue_limit" (Json.int_field j "queue_limit") in
    Ok (Overloaded { r_id = Json.int_field j "id"; queue_depth; queue_limit })
  | Some "stats" ->
    let* queue_depth = required "queue_depth" (Json.int_field j "queue_depth") in
    let* queue_limit = required "queue_limit" (Json.int_field j "queue_limit") in
    let verdicts =
      match Json.member "verdicts" j with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
      | _ -> []
    in
    Ok
      (Stats_r
         { queue_depth;
           queue_limit;
           uptime_s = Option.value ~default:0.0 (Json.num_field j "uptime_s");
           served = Option.value ~default:0 (Json.int_field j "served");
           rejected = Option.value ~default:0 (Json.int_field j "rejected");
           timeouts = Option.value ~default:0 (Json.int_field j "timeouts");
           cache_hit_rate = Option.value ~default:0.0 (Json.num_field j "cache_hit_rate");
           cache_hits = Option.value ~default:0 (Json.int_field j "cache_hits");
           cache_misses = Option.value ~default:0 (Json.int_field j "cache_misses");
           server = Option.value ~default:"" (Json.str_field j "server");
           verdicts;
           report = Option.value ~default:(Json.Obj []) (Json.member "report" j);
         })
  | Some "error" ->
    let* message = required "message" (Json.str_field j "message") in
    Ok (Error_r { r_id = Json.int_field j "id"; message })
  | Some "bye" -> Ok Bye
  | Some op -> Error ("unknown op " ^ op)

(* ------------------------------------------------------------------ *)
(* Framing over file descriptors (blocking helpers for clients/tests)  *)
(* ------------------------------------------------------------------ *)

exception Protocol_error of string

let frame_of_payload (payload : string) : string =
  let n = String.length payload in
  if n > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "frame too large (%d bytes)" n));
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let decode_len (b : Bytes.t) (off : int) : int =
  Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

let send_frame (fd : Unix.file_descr) (payload : string) : unit =
  let f = frame_of_payload payload in
  Ub_support.Util.write_all fd (Bytes.of_string f) 0 (String.length f)

(* Blocking read of exactly [len] bytes; [None] on clean EOF at a frame
   boundary, [Protocol_error] on EOF mid-frame. *)
let read_exactly (fd : Unix.file_descr) (len : int) ~(what : string) : Bytes.t option =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Some b
    else begin
      let n =
        try Unix.read fd b off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if n = 0 then
        if off = 0 then None
        else raise (Protocol_error (Printf.sprintf "EOF inside %s" what))
      else go (off + max 0 n)
    end
  in
  go 0

let recv_frame (fd : Unix.file_descr) : string option =
  match read_exactly fd 4 ~what:"length prefix" with
  | None -> None
  | Some hdr ->
    let len = decode_len hdr 0 in
    if len > max_frame_bytes then
      raise (Protocol_error (Printf.sprintf "oversized frame (%d bytes)" len));
    (match read_exactly fd len ~what:"frame payload" with
    | None -> raise (Protocol_error "EOF inside frame payload")
    | Some b -> Some (Bytes.to_string b))

let send_request fd (r : request) = send_frame fd (Json.to_string (request_to_json r))

let recv_reply fd : reply option =
  Option.map
    (fun payload ->
      match Result.bind (Json.of_string payload) reply_of_json with
      | Ok r -> r
      | Error e -> raise (Protocol_error ("bad reply: " ^ e)))
    (recv_frame fd)
