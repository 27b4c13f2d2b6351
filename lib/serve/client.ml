(* Client side of the serve protocol: connect, handshake, then either
   synchronous request/reply ([rpc]) or explicit [send]/[recv] for
   pipelining (the load generator and the overload tests send bursts of
   frames before reading any reply). *)

exception Server_error of string

type t = {
  fd : Unix.file_descr;
  server : string; (* the server's self-description from hello_ok *)
  jobs : int; (* server's pool size, echoed in hello_ok (0 if unsent) *)
  queue_limit : int; (* server's admission-queue depth (0 if unsent) *)
}

let connect ?(client = "ubc") ~socket_path () : t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     Unix.close fd;
     raise e);
  Wire.send_request fd (Wire.Hello { v = Wire.version; client });
  match Wire.recv_reply fd with
  | Some (Wire.Hello_ok { server; jobs; queue_limit; _ }) -> { fd; server; jobs; queue_limit }
  | Some (Wire.Error_r { message; _ }) ->
    Unix.close fd;
    raise (Server_error message)
  | Some _ ->
    Unix.close fd;
    raise (Server_error "unexpected handshake reply")
  | None ->
    Unix.close fd;
    raise (Server_error "server closed the connection during handshake")

let close (t : t) : unit = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send (t : t) (req : Wire.request) : unit = Wire.send_request t.fd req

let recv (t : t) : Wire.reply option = Wire.recv_reply t.fd

let rpc (t : t) (req : Wire.request) : Wire.reply =
  send t req;
  match recv t with
  | Some r -> r
  | None -> raise (Server_error "server closed the connection")

let check (t : t) ?id ?deadline_s ?(enum_only = false) ~(mode : string) ~(src : string)
    ~(tgt : string) () : Wire.reply =
  let cr = { Wire.id; mode; src; tgt; deadline_s; enum_only } in
  rpc t (if enum_only then Wire.Enum_check cr else Wire.Check cr)

let check_pair (t : t) ?id ?deadline_s ~(mode : string) ~(module_text : string) () :
    Wire.reply =
  rpc t (Wire.Check_pair { id; mode; module_text; deadline_s })

(* Pipelined batch: send every Check frame up front, then collect
   exactly one reply per request.  Replies are matched to requests by
   the echoed id — the server may answer out of request order when
   coalesced batches complete together.  A reply without an id (or with
   one we did not send) fills the first unanswered slot, so a protocol
   hiccup degrades accounting but never hangs the client. *)
let check_batch (t : t) ?deadline_s ?(enum_only = false) ~(mode : string)
    (pairs : (string * string) array) : Wire.reply array =
  let n = Array.length pairs in
  Array.iteri
    (fun i (src, tgt) ->
      let cr = { Wire.id = Some i; mode; src; tgt; deadline_s; enum_only } in
      send t (if enum_only then Wire.Enum_check cr else Wire.Check cr))
    pairs;
  let replies = Array.make n None in
  let next_unfilled = ref 0 in
  for _ = 1 to n do
    match recv t with
    | None -> raise (Server_error "server closed the connection mid-batch")
    | Some r ->
      let id =
        match r with
        | Wire.Verdict { r_id; _ } | Wire.Overloaded { r_id; _ } | Wire.Error_r { r_id; _ }
          ->
          r_id
        | _ -> None
      in
      let slot =
        match id with
        | Some i when i >= 0 && i < n && replies.(i) = None -> i
        | _ ->
          while !next_unfilled < n && replies.(!next_unfilled) <> None do
            incr next_unfilled
          done;
          !next_unfilled
      in
      if slot < n then replies.(slot) <- Some r
  done;
  Array.map
    (function
      | Some r -> r
      | None -> Wire.Error_r { r_id = None; message = "no reply received" })
    replies

let stats (t : t) : Wire.stats_reply =
  match rpc t Wire.Stats with
  | Wire.Stats_r s -> s
  | Wire.Error_r { message; _ } -> raise (Server_error message)
  | _ -> raise (Server_error "unexpected stats reply")

(* Ask the server to drain and exit; resolves when the server says
   [Bye] (everything queued before the shutdown has been answered) or
   closes the socket. *)
let shutdown (t : t) : unit =
  send t Wire.Shutdown;
  let rec wait () =
    match recv t with
    | Some Wire.Bye | None -> ()
    | Some _ -> wait () (* verdicts still in flight for this connection *)
  in
  (try wait () with Wire.Protocol_error _ -> ());
  close t

let with_conn ?client ~socket_path (f : t -> 'a) : 'a =
  let t = connect ?client ~socket_path () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Fleet mode: one client over N shards                                 *)
(* ------------------------------------------------------------------ *)

(* A shard-aware client.  Each request routes to the shard owning its
   verdict-cache key on a consistent-hash ring, so identical queries
   always meet on the same shard (coalescing still works) and each
   shard's journal stays hot for its key range.  On shard failure the
   request retries on the next distinct shard in ring order, with
   bounded exponential backoff before reconnecting to a dead shard and
   the original end-to-end deadline preserved: a retried request is
   sent with only the budget it has left, and a request whose budget is
   exhausted before it can be dispatched is answered locally with a
   timeout verdict.  A request that exhausts every route is answered
   with an error reply — the fleet client never raises mid-batch and
   never hangs (a stall guard fails the remainder after a long quiet
   period), so callers can account every query as completed or
   dropped-with-reason. *)
module Fleet = struct
  type pending = {
    p_slot : int;
    p_mode : string;
    p_src : string;
    p_tgt : string;
    p_enum : bool;
    p_deadline : float option; (* original end-to-end budget *)
    p_t0 : float; (* first enqueue time; budget is measured from here *)
    p_key : string; (* routing key (verdict-cache key + deadline class) *)
    mutable p_attempts : int;
  }

  type shard = {
    s_idx : int;
    s_path : string;
    mutable s_name : string; (* display name; server's hello name once connected *)
    mutable s_fd : Unix.file_descr option;
    mutable s_window : int; (* max in-flight; bounded by the shard's queue *)
    s_waiting : pending Queue.t;
    s_inflight : (int, pending) Hashtbl.t; (* wire id -> pending *)
    mutable s_dead_until : float; (* no reconnect attempts before this *)
    mutable s_backoff : float; (* current backoff step, doubles to a cap *)
  }

  type t = {
    ring : Ring.t;
    shards : shard array;
    client_name : string;
    mutable wire_seq : int; (* fresh wire id per send attempt *)
  }

  let backoff_min = 0.05
  let backoff_max = 2.0
  let window_max = 64 (* in-flight cap per shard before the hello narrows it *)

  let shard_display path =
    let b = Filename.basename path in
    if Filename.check_suffix b ".sock" then Filename.chop_suffix b ".sock" else b

  let make ?(client = "ubc-fleet") (sockets : string list) : t =
    if sockets = [] then invalid_arg "Fleet.make: no shard sockets";
    let shards =
      Array.of_list
        (List.mapi
           (fun i path ->
             { s_idx = i;
               s_path = path;
               s_name = shard_display path;
               s_fd = None;
               s_window = window_max;
               s_waiting = Queue.create ();
               s_inflight = Hashtbl.create 64;
               s_dead_until = 0.0;
               s_backoff = backoff_min;
             })
           sockets)
    in
    { ring = Ring.make (List.map shard_display sockets); shards; client_name = client;
      wire_seq = 0 }

  (* The routing key matches the server's coalescing key structure:
     verdict-cache key of the query plus the deadline class, so two
     identical queries under the same budget land on the same shard and
     coalesce there. *)
  let routing_key ~mode ~src ~tgt ~enum_only ~deadline_s : string =
    Ub_exec.Cache.key
      ~parts:
        [ "fleet-route"; mode; src; tgt;
          (if enum_only then "enum" else "full");
          (match deadline_s with None -> "-" | Some s -> Printf.sprintf "%.3f" s);
        ]

  let now () = Unix.gettimeofday ()

  let mark_dead (sh : shard) : unit =
    (match sh.s_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    sh.s_fd <- None;
    sh.s_dead_until <- now () +. sh.s_backoff;
    sh.s_backoff <- Float.min backoff_max (sh.s_backoff *. 2.0)

  let connect_failed fd (sh : shard) : bool =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    sh.s_fd <- None;
    sh.s_dead_until <- now () +. sh.s_backoff;
    sh.s_backoff <- Float.min backoff_max (sh.s_backoff *. 2.0);
    false

  (* Blocking connect + handshake; Unix-domain connects either succeed
     immediately or fail fast (ECONNREFUSED / ENOENT).  On success the
     in-flight window shrinks to half the shard's advertised queue so a
     single fleet client cannot trip the shard's admission control. *)
  let try_connect (t : t) (sh : shard) : bool =
    match sh.s_fd with
    | Some _ -> true
    | None ->
      if now () < sh.s_dead_until then false
      else begin
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match
          Unix.connect fd (Unix.ADDR_UNIX sh.s_path);
          Wire.send_request fd (Wire.Hello { v = Wire.version; client = t.client_name });
          Wire.recv_reply fd
        with
        | Some (Wire.Hello_ok { server; queue_limit; _ }) ->
          sh.s_fd <- Some fd;
          sh.s_name <- server;
          sh.s_window <-
            (if queue_limit > 0 then max 1 (min window_max (queue_limit / 2))
             else window_max);
          sh.s_backoff <- backoff_min;
          true
        | _ -> connect_failed fd sh
        | exception Unix.Unix_error _ -> connect_failed fd sh
        | exception Wire.Protocol_error _ -> connect_failed fd sh
      end

  let close (t : t) : unit = Array.iter mark_dead t.shards

  (* Next shard to try for [p]: walk the ring successors of its key,
     skipping shards already tried this attempt round only implicitly
     (attempts is global, the walk restarts at the owner).  Prefer the
     first successor that is connected or out of backoff; fall back to
     the successor whose backoff expires soonest so the pump can wait
     it out rather than fail early. *)
  let choose_shard (t : t) (p : pending) : shard =
    let succs = Ring.successors t.ring p.p_key in
    (* rotate by attempts so retry k starts at the k-th successor *)
    let rec rotate k = function
      | [] -> []
      | _ :: tl as l -> if k = 0 then l else rotate (k - 1) tl
    in
    let order =
      match rotate (p.p_attempts mod Ring.size t.ring) succs with
      | [] -> succs
      | l -> l @ succs
    in
    let tnow = now () in
    let usable =
      List.find_opt
        (fun i ->
          let sh = t.shards.(i) in
          sh.s_fd <> None || tnow >= sh.s_dead_until)
        order
    in
    match usable with
    | Some i -> t.shards.(i)
    | None ->
      (* every shard is in backoff: pick the one that recovers first *)
      let best = ref t.shards.(List.hd order) in
      List.iter
        (fun i -> if t.shards.(i).s_dead_until < !best.s_dead_until then best := t.shards.(i))
        order;
      !best

  (* Tagged batch: one reply per request plus the name of the shard
     that answered it ("client" for locally synthesized replies). *)
  let check_batch_tagged (t : t) ?deadline_s ?(enum_only = false) ~(mode : string)
      (pairs : (string * string) array) : (Wire.reply * string) array =
    let n = Array.length pairs in
    let slots : (Wire.reply * string) option array = Array.make n None in
    let outstanding = ref n in
    let t0 = now () in
    let fill slot reply tag =
      if slots.(slot) = None then begin
        slots.(slot) <- Some (reply, tag);
        decr outstanding
      end
    in
    (* route every request to its primary shard *)
    Array.iteri
      (fun i (src, tgt) ->
        let key = routing_key ~mode ~src ~tgt ~enum_only ~deadline_s in
        let p =
          { p_slot = i; p_mode = mode; p_src = src; p_tgt = tgt; p_enum = enum_only;
            p_deadline = deadline_s; p_t0 = t0; p_key = key; p_attempts = 0 }
        in
        Queue.push p t.shards.(Ring.route t.ring key).s_waiting)
      pairs;
    (* two passes around the ring before a request gives up *)
    let max_attempts = 2 * Array.length t.shards in
    let requeue (p : pending) : unit =
      p.p_attempts <- p.p_attempts + 1;
      if p.p_attempts > max_attempts then
        fill p.p_slot
          (Wire.Error_r
             { r_id = None;
               message =
                 Printf.sprintf "no shard available after %d attempts" p.p_attempts;
             })
          "client"
      else Queue.push p (choose_shard t p).s_waiting
    in
    let fail_shard (sh : shard) : unit =
      mark_dead sh;
      let stranded = Hashtbl.fold (fun _ p acc -> p :: acc) sh.s_inflight [] in
      Hashtbl.reset sh.s_inflight;
      let waiting = Queue.fold (fun acc p -> p :: acc) [] sh.s_waiting in
      Queue.clear sh.s_waiting;
      List.iter requeue (List.rev_append waiting (List.rev stranded))
    in
    let dispatch (sh : shard) : unit =
      match sh.s_fd with
      | None -> ()
      | Some fd ->
        (try
           while
             Hashtbl.length sh.s_inflight < sh.s_window
             && not (Queue.is_empty sh.s_waiting)
           do
             let p = Queue.pop sh.s_waiting in
             if slots.(p.p_slot) <> None then () (* already answered (synthesized) *)
             else begin
               let remaining =
                 match p.p_deadline with
                 | None -> None
                 | Some d -> Some (d -. (now () -. p.p_t0))
               in
               match remaining with
               | Some r when r <= 0.005 ->
                 (* budget burned before dispatch (e.g. spent in failover
                    backoff): answer locally, preserving deadline
                    semantics end-to-end *)
                 fill p.p_slot
                   (Wire.Verdict
                      { r_id = None; verdict = "timeout";
                        detail = "deadline exceeded before dispatch (fleet)";
                        args = []; cached = false; coalesced = false;
                        wall_s = now () -. p.p_t0 })
                   "client"
               | _ ->
                 let id = t.wire_seq in
                 t.wire_seq <- t.wire_seq + 1;
                 let cr =
                   { Wire.id = Some id; mode = p.p_mode; src = p.p_src; tgt = p.p_tgt;
                     deadline_s = remaining; enum_only = p.p_enum }
                 in
                 Wire.send_request fd
                   (if p.p_enum then Wire.Enum_check cr else Wire.Check cr);
                 Hashtbl.replace sh.s_inflight id p
             end
           done
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> fail_shard sh)
    in
    let drain_reply (sh : shard) : unit =
      match sh.s_fd with
      | None -> ()
      | Some fd -> (
        match Wire.recv_reply fd with
        | Some reply -> (
          let id =
            match reply with
            | Wire.Verdict { r_id; _ } | Wire.Overloaded { r_id; _ }
            | Wire.Error_r { r_id; _ } ->
              r_id
            | _ -> None
          in
          match Option.bind id (Hashtbl.find_opt sh.s_inflight) with
          | None -> () (* stats/bye/unmatched: ignore *)
          | Some p -> (
            Hashtbl.remove sh.s_inflight (Option.get id);
            match reply with
            | Wire.Overloaded _ ->
              (* shard admission queue is full: retry (possibly on the
                 same shard once the window logic lets it through) *)
              requeue p
            | _ -> fill p.p_slot reply sh.s_name))
        | None -> fail_shard sh
        | exception Wire.Protocol_error _ -> fail_shard sh
        | exception Unix.Unix_error _ -> fail_shard sh)
    in
    (* pump until every slot is filled *)
    let last_progress = ref (now ()) in
    let stall_limit =
      (* generous: longest request budget plus a fixed grace, or 120s *)
      match deadline_s with Some d -> Float.max 120.0 ((2.0 *. d) +. 60.0) | None -> 120.0
    in
    let before = ref (n + 1) in
    while !outstanding > 0 do
      if !outstanding < !before then begin
        before := !outstanding;
        last_progress := now ()
      end;
      Array.iter
        (fun sh ->
          (* a down shard with queued work: reconnect once its backoff
             expires; a failed reconnect reroutes the queued work to
             ring successors immediately *)
          if (not (Queue.is_empty sh.s_waiting)) && sh.s_fd = None
             && now () >= sh.s_dead_until
          then begin
            if not (try_connect t sh) then fail_shard sh
          end;
          dispatch sh)
        t.shards;
      let fds =
        Array.to_list t.shards
        |> List.filter_map (fun sh ->
               match sh.s_fd with
               | Some fd when Hashtbl.length sh.s_inflight > 0 -> Some (fd, sh)
               | _ -> None)
      in
      if fds = [] then begin
        (* nothing in flight: either waiting for backoff to expire or
           every pending just got synthesized/failed *)
        if !outstanding > 0 then ignore (Unix.select [] [] [] 0.02)
      end
      else begin
        let readable, _, _ =
          try Unix.select (List.map fst fds) [] [] 0.1
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            match List.assoc_opt fd fds with
            | Some sh -> drain_reply sh
            | None -> ())
          readable
      end;
      if now () -. !last_progress > stall_limit then begin
        (* fail everything still unanswered rather than hang forever *)
        Array.iter
          (fun sh ->
            Hashtbl.iter
              (fun _ p ->
                fill p.p_slot
                  (Wire.Error_r { r_id = None; message = "fleet client stalled" })
                  "client")
              sh.s_inflight;
            Hashtbl.reset sh.s_inflight;
            Queue.iter
              (fun p ->
                fill p.p_slot
                  (Wire.Error_r { r_id = None; message = "fleet client stalled" })
                  "client")
              sh.s_waiting;
            Queue.clear sh.s_waiting)
          t.shards
      end
    done;
    Array.map
      (function
        | Some rt -> rt
        | None -> (Wire.Error_r { r_id = None; message = "no reply received" }, "client"))
      slots

  (* Which shard a query routes to (primary); exposed for tests and for
     the fleet front's diagnostics. *)
  let shard_of (t : t) ?deadline_s ?(enum_only = false) ~mode ~src ~tgt () : int =
    Ring.route t.ring (routing_key ~mode ~src ~tgt ~enum_only ~deadline_s)

  (* Fan out over fresh connections so pump state is untouched; dead
     shards are skipped, so the result lists reachable shards only. *)
  let stats (t : t) : (string * Wire.stats_reply) list =
    Array.to_list t.shards
    |> List.filter_map (fun sh ->
           match connect ~client:t.client_name ~socket_path:sh.s_path () with
           | exception _ -> None
           | c ->
             Fun.protect
               ~finally:(fun () -> try Unix.close c.fd with Unix.Unix_error _ -> ())
               (fun () ->
                 match rpc c Wire.Stats with
                 | Wire.Stats_r s ->
                   Some ((if s.Wire.server <> "" then s.Wire.server else sh.s_name), s)
                 | _ -> None
                 | exception _ -> None))

  let shutdown_all (t : t) : unit =
    close t;
    Array.iter
      (fun sh ->
        match connect ~client:t.client_name ~socket_path:sh.s_path () with
        | exception _ -> ()
        | c -> ( try shutdown c with _ -> ()))
      t.shards
end
