(* Client side of the serve protocol: connect, handshake, then either
   synchronous request/reply ([rpc]) or explicit [send]/[recv] for
   pipelining (the load generator and the overload tests send bursts of
   frames before reading any reply). *)

exception Server_error of string

type t = {
  fd : Unix.file_descr;
  server : string; (* the server's self-description from hello_ok *)
  jobs : int; (* server's pool size, echoed in hello_ok *)
  queue_limit : int; (* server's admission-queue depth *)
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
  rpc t (Wire.Check { Wire.id; mode; src; tgt; deadline_s; enum_only })

(* Pipelined batch: send every Check frame up front, then collect
   exactly one reply per request.  Replies are matched to requests by
   the echoed id — a server with persistent workers may answer out of
   request order.  A reply that names no unanswered request raises
   [Server_error]: handing it to a guessed request could give that
   request another's verdict. *)
let check_batch (t : t) ?deadline_s ?(enum_only = false) ~(mode : string)
    (pairs : (string * string) array) : Wire.reply array =
  let n = Array.length pairs in
  Array.iteri
    (fun i (src, tgt) ->
      send t (Wire.Check { Wire.id = Some i; mode; src; tgt; deadline_s; enum_only }))
    pairs;
  let replies = Array.make n None in
  for _ = 1 to n do
    match recv t with
    | Some
        (( Wire.Verdict { r_id = Some i; _ }
         | Wire.Overloaded { r_id = Some i; _ }
         | Wire.Error_r { r_id = Some i; _ } ) as r)
      when i >= 0 && i < n && replies.(i) = None ->
      replies.(i) <- Some r
    | Some _ -> raise (Server_error "a reply that names no unanswered request")
    | None -> raise (Server_error "server closed the connection mid-batch")
  done;
  Array.map Option.get replies

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
