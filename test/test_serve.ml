(* The serve subsystem: the JSON codec, wire-protocol round-trips for
   every request/reply variant, the framing layer, and a live daemon
   driven over a Unix socket -- including the malformed-frame fuzz the
   protocol demands (truncated length prefix, oversized frame, invalid
   JSON payload), where the server must answer [error] and stay up. *)

module Json = Ub_serve.Json
module Wire = Ub_serve.Wire
module Server = Ub_serve.Server
module Client = Ub_serve.Client

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let roundtrip (v : Json.t) : Json.t =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let json_tests =
  [ Alcotest.test_case "values survive print/parse" `Quick (fun () ->
        let v =
          Json.Obj
            [ ("s", Json.Str "a\"b\\c\n\t");
              ("n", Json.Num 1.5);
              ("i", Json.Num (-3.0));
              ("b", Json.Bool true);
              ("z", Json.Null);
              ("l", Json.List [ Json.Num 0.0; Json.Str ""; Json.Obj [] ]);
            ]
        in
        Alcotest.(check bool) "equal after roundtrip" true (roundtrip v = v));
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick (fun () ->
        (match Json.of_string {|"Aé"|} with
        | Ok (Json.Str s) -> Alcotest.(check string) "A + e-acute" "A\xc3\xa9" s
        | _ -> Alcotest.fail "parse failed");
        match Json.of_string {|"😀"|} with
        | Ok (Json.Str s) ->
          Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
        | _ -> Alcotest.fail "surrogate parse failed");
    Alcotest.test_case "to_int refuses what a float cannot hold exactly" `Quick (fun () ->
        let id text = Option.bind (Result.to_option (Json.of_string text)) Json.to_int in
        Alcotest.(check (option int)) "1e300" None (id "1e300");
        Alcotest.(check (option int)) "2^53 + 1" None (id "9007199254740993");
        Alcotest.(check (option int)) "-2^53" None (id "-9007199254740992");
        Alcotest.(check (option int)) "2^53 - 1" (Some 9007199254740991) (id "9007199254740991");
        Alcotest.(check (option int)) "-2^53 + 1" (Some (-9007199254740991))
          (id "-9007199254740991");
        Alcotest.(check (option int)) "fraction" None (id "1.5"));
    Alcotest.test_case "garbage is rejected" `Quick (fun () ->
        let bad = [ "{"; "[1,"; "\"unterminated"; "{} trailing"; "nul"; "+1"; "" ] in
        List.iter
          (fun s ->
            match Json.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          bad);
  ]

(* ------------------------------------------------------------------ *)
(* Wire protocol round-trips                                           *)
(* ------------------------------------------------------------------ *)

let req_roundtrip (r : Wire.request) =
  match Json.of_string (Json.to_string (Wire.request_to_json r)) with
  | Error e -> Alcotest.failf "request reparse: %s" e
  | Ok j -> (
    match Wire.request_of_json j with
    | Ok r' -> Alcotest.(check bool) "request equal" true (r = r')
    | Error e -> Alcotest.failf "request decode: %s" e)

let reply_roundtrip (r : Wire.reply) =
  match Json.of_string (Json.to_string (Wire.reply_to_json r)) with
  | Error e -> Alcotest.failf "reply reparse: %s" e
  | Ok j -> (
    match Wire.reply_of_json j with
    | Ok r' -> Alcotest.(check bool) "reply equal" true (r = r')
    | Error e -> Alcotest.failf "reply decode: %s" e)

let a_check : Wire.check_req =
  { Wire.id = Some 7;
    mode = "proposed";
    src = "define i8 @f(i8 %x) {\ne:\n  ret i8 %x\n}";
    tgt = "define i8 @f(i8 %x) {\ne:\n  ret i8 %x\n}";
    deadline_s = Some 1.5;
    enum_only = false;
  }

let wire_tests =
  [ Alcotest.test_case "every request variant roundtrips" `Quick (fun () ->
        req_roundtrip (Wire.Hello { v = Wire.version; client = "test" });
        req_roundtrip (Wire.Check a_check);
        req_roundtrip (Wire.Check { a_check with Wire.id = None; deadline_s = None });
        req_roundtrip (Wire.Enum_check { a_check with Wire.enum_only = true });
        req_roundtrip
          (Wire.Check_pair
             { id = Some 1; mode = "strict"; module_text = "m"; deadline_s = None });
        req_roundtrip Wire.Stats;
        req_roundtrip Wire.Shutdown);
    Alcotest.test_case "every reply variant roundtrips" `Quick (fun () ->
        reply_roundtrip (Wire.Hello_ok { v = 1; server = "s/1"; jobs = 2; queue_limit = 64 });
        reply_roundtrip
          (Wire.Verdict
             { r_id = Some 3;
               verdict = "counterexample";
               detail = "src=1 tgt=0";
               args = [ "0x7f"; "0x01" ];
               cached = true;
               coalesced = true;
               wall_s = 0.25;
             });
        reply_roundtrip
          (Wire.Verdict
             { r_id = None; verdict = "refines"; detail = ""; args = []; cached = false;
               coalesced = false; wall_s = 0.0 });
        reply_roundtrip (Wire.Overloaded { r_id = Some 9; queue_depth = 64; queue_limit = 64 });
        reply_roundtrip
          (Wire.Stats_r
             { queue_depth = 2;
               queue_limit = 64;
               uptime_s = 3.5;
               served = 10;
               coalesced_total = 4;
               rejected = 1;
               timeouts = 2;
               cache_hit_rate = 0.5;
               cache_hits = 5;
               cache_misses = 5;
               server = "s/1";
               verdicts = [ ("refines", 8); ("timeout", 2) ];
               report = Json.Obj [ ("schema", Json.Str "x") ];
             });
        reply_roundtrip (Wire.Error_r { r_id = None; message = "boom" });
        reply_roundtrip Wire.Bye);
    Alcotest.test_case "unknown op decodes to an error" `Quick (fun () ->
        (match Wire.request_of_json (Json.Obj [ ("op", Json.Str "frobnicate") ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown request op accepted");
        match Wire.reply_of_json (Json.Obj [ ("op", Json.Str "nonsense") ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown reply op accepted");
  ]

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let with_socketpair k =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> k a b)

let frame_tests =
  [ Alcotest.test_case "frames carry their payload" `Quick (fun () ->
        with_socketpair (fun a b ->
            Wire.send_frame a "hello frame";
            Wire.send_frame a "";
            Alcotest.(check (option string)) "first" (Some "hello frame") (Wire.recv_frame b);
            Alcotest.(check (option string)) "empty payload" (Some "") (Wire.recv_frame b);
            Unix.close a;
            Alcotest.(check (option string)) "clean EOF" None (Wire.recv_frame b)));
    Alcotest.test_case "oversized length prefix raises" `Quick (fun () ->
        with_socketpair (fun a b ->
            let n = Wire.max_frame_bytes + 1 in
            let hdr =
              Bytes.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))
            in
            ignore (Unix.write a hdr 0 4);
            match Wire.recv_frame b with
            | exception Wire.Protocol_error _ -> ()
            | _ -> Alcotest.fail "oversized frame accepted"));
    Alcotest.test_case "EOF inside a frame raises" `Quick (fun () ->
        with_socketpair (fun a b ->
            (* header claims 10 bytes, only 3 arrive *)
            ignore (Unix.write a (Bytes.of_string "\x00\x00\x00\x0aabc") 0 7);
            Unix.close a;
            match Wire.recv_frame b with
            | exception Wire.Protocol_error _ -> ()
            | _ -> Alcotest.fail "truncated frame accepted"));
  ]

(* ------------------------------------------------------------------ *)
(* A live daemon                                                       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Fork a daemon on a fresh socket, run [k socket_path pid], always
   SIGTERM + reap + clean up. *)
let with_server ?(tune = fun (c : Server.config) -> c) k =
  let dir = Filename.temp_file "ub_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let socket_path = Filename.concat dir "s.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Ub_obs.Obs.child_begin ();
    (try Server.run (tune (Server.default_config ~socket_path)) with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        waitpid_retry pid;
        try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
      (fun () ->
        let rec wait n =
          if Sys.file_exists socket_path then ()
          else if n > 200 then Alcotest.fail "daemon did not come up"
          else begin
            Unix.sleepf 0.05;
            wait (n + 1)
          end
        in
        wait 0;
        k socket_path pid)

let src_id = "define i8 @f(i8 %x) {\ne:\n  ret i8 %x\n}"
let tgt_zero = "define i8 @f(i8 %x) {\ne:\n  ret i8 0\n}"

(* x*y = y*x at i64: far beyond any millisecond deadline *)
let hard_mul_src = "define i64 @h(i64 %x, i64 %y) {\ne:\n  %m = mul i64 %x, %y\n  ret i64 %m\n}"
let hard_mul_tgt = "define i64 @h(i64 %x, i64 %y) {\ne:\n  %m = mul i64 %y, %x\n  ret i64 %m\n}"

let expect_verdict name expected = function
  | Wire.Verdict v -> Alcotest.(check string) name expected v.Wire.verdict
  | Wire.Error_r { message; _ } -> Alcotest.failf "%s: server error: %s" name message
  | _ -> Alcotest.failf "%s: unexpected reply" name

(* a raw connection that has completed the handshake, for speaking
   deliberately broken bytes at the server *)
let raw_connect socket_path : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Wire.send_request fd (Wire.Hello { v = Wire.version; client = "raw" });
  (match Wire.recv_reply fd with
  | Some (Wire.Hello_ok _) -> ()
  | _ -> Alcotest.fail "handshake failed");
  fd

(* A deadline interrupts the checker mid-query: in the daemon process
   when [jobs = 1], in a persistent worker that must survive it
   otherwise. *)
let deadline_miss_test ~jobs name =
  Alcotest.test_case name `Quick (fun () ->
      with_server
        ~tune:(fun c -> { c with Server.jobs })
        (fun socket_path _ ->
          Client.with_conn ~socket_path (fun cl ->
              expect_verdict "i64 mul commutativity times out" "timeout"
                (Client.check cl ~deadline_s:0.001 ~mode:"proposed" ~src:hard_mul_src
                   ~tgt:hard_mul_tgt ());
              expect_verdict "next query refuted" "counterexample"
                (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:tgt_zero ());
              expect_verdict "next query refines" "refines"
                (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ()))))

(* ------------------------------------------------------------------ *)
(* Persistent workers                                                  *)
(* ------------------------------------------------------------------ *)

(* /proc/PID/stat fields after the parenthesised command name: state,
   ppid, ..., utime and stime (in clock ticks) at offsets 11 and 12. *)
let proc_stat (pid : int) : string list option =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match String.rindex_opt text ')' with
    | None -> None
    | Some i ->
      Some
        (String.split_on_char ' '
           (String.trim (String.sub text (i + 1) (String.length text - i - 1)))))

(* The daemon's workers are its children. *)
let children (pid : int) : int list =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p ->
         match proc_stat p with
         | Some (_ :: ppid :: _) -> int_of_string_opt ppid = Some pid
         | _ -> false)
  |> List.sort compare

let cpu_ticks (pid : int) : int =
  match proc_stat pid with
  | Some fields -> (
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s -> int_of_string u + int_of_string s
    | _ -> 0)
  | None -> 0

let rec wait_until ?(tries = 200) what (p : unit -> bool) : unit =
  if not (p ()) then
    if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.05;
      wait_until ~tries:(tries - 1) what p
    end

(* The next reply on [fd], failing instead of hanging when none comes. *)
let recv_within (fd : Unix.file_descr) (what : string) : Wire.reply option =
  match Unix.select [ fd ] [] [] 10.0 with
  | [], _, _ -> Alcotest.failf "no reply within 10s: %s" what
  | _ -> Wire.recv_reply fd

let check_frame ?deadline_s id ~src ~tgt =
  Wire.frame_of_payload
    (Json.to_string
       (Wire.request_to_json
          (Wire.Check { Wire.id = Some id; mode = "proposed"; src; tgt; deadline_s;
                        enum_only = false })))

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.of_string s in
  ignore (Unix.write fd b 0 (Bytes.length b))

let hard_mul name =
  ( Printf.sprintf
      "define i64 @%s(i64 %%x, i64 %%y) {\ne:\n  %%m = mul i64 %%x, %%y\n  ret i64 %%m\n}" name,
    Printf.sprintf
      "define i64 @%s(i64 %%x, i64 %%y) {\ne:\n  %%m = mul i64 %%y, %%x\n  ret i64 %%m\n}" name )

let server_tests =
  [ Alcotest.test_case "verdicts round-trip through the daemon" `Quick (fun () ->
        with_server (fun socket_path _ ->
            Client.with_conn ~socket_path (fun cl ->
                expect_verdict "identity refines" "refines"
                  (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ());
                (match Client.check cl ~mode:"proposed" ~src:src_id ~tgt:tgt_zero () with
                | Wire.Verdict v ->
                  Alcotest.(check string) "broken pair" "counterexample" v.Wire.verdict;
                  Alcotest.(check bool) "witness args present" true (v.Wire.args <> [])
                | _ -> Alcotest.fail "expected a verdict");
                expect_verdict "enum agrees" "refines"
                  (Client.check cl ~enum_only:true ~mode:"proposed" ~src:src_id ~tgt:src_id ()))));
    Alcotest.test_case "invalid JSON answers error and the connection lives" `Quick
      (fun () ->
        with_server (fun socket_path _ ->
            let fd = raw_connect socket_path in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            Wire.send_frame fd "{this is not json";
            (match Wire.recv_reply fd with
            | Some (Wire.Error_r _) -> ()
            | _ -> Alcotest.fail "malformed payload must answer error");
            (* same connection still works *)
            Wire.send_request fd
              (Wire.Check
                 { Wire.id = Some 1; mode = "proposed"; src = src_id; tgt = src_id;
                   deadline_s = None; enum_only = false });
            match Wire.recv_reply fd with
            | Some (Wire.Verdict v) ->
              Alcotest.(check string) "still serving" "refines" v.Wire.verdict
            | _ -> Alcotest.fail "connection died after a malformed payload"));
    Alcotest.test_case "unknown op / bad mode / bad IR answer error" `Quick (fun () ->
        with_server (fun socket_path _ ->
            let fd = raw_connect socket_path in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            let expect_error what =
              match Wire.recv_reply fd with
              | Some (Wire.Error_r _) -> ()
              | _ -> Alcotest.failf "%s must answer error" what
            in
            Wire.send_frame fd {|{"op":"frobnicate"}|};
            expect_error "unknown op";
            Wire.send_frame fd
              (Json.to_string
                 (Wire.request_to_json
                    (Wire.Check { a_check with Wire.mode = "no-such-mode" })));
            expect_error "unknown mode";
            Wire.send_frame fd
              (Json.to_string
                 (Wire.request_to_json (Wire.Check { a_check with Wire.src = "not ir" })));
            expect_error "unparsable src"));
    Alcotest.test_case "oversized frame gets an error, then close; server survives" `Quick
      (fun () ->
        with_server (fun socket_path _ ->
            let fd = raw_connect socket_path in
            (let n = Wire.max_frame_bytes + 1 in
             let hdr = Bytes.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)) in
             ignore (Unix.write fd hdr 0 4);
             (match Wire.recv_reply fd with
             | Some (Wire.Error_r _) -> ()
             | _ -> Alcotest.fail "oversized frame must answer error");
             (* no resync is possible: the server must close *)
             (match Wire.recv_reply fd with
             | None -> ()
             | _ -> Alcotest.fail "server must close after a bad prefix"));
            Unix.close fd;
            (* the daemon itself must still be fine *)
            Client.with_conn ~socket_path (fun cl ->
                expect_verdict "fresh connection works" "refines"
                  (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ()))));
    Alcotest.test_case "truncated length prefix at hangup is tolerated" `Quick (fun () ->
        with_server (fun socket_path _ ->
            let fd = raw_connect socket_path in
            ignore (Unix.write fd (Bytes.of_string "\x00\x01") 0 2);
            Unix.close fd;
            Client.with_conn ~socket_path (fun cl ->
                expect_verdict "server unharmed" "refines"
                  (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ()))));
    Alcotest.test_case "hello is mandatory and versioned" `Quick (fun () ->
        with_server (fun socket_path _ ->
            (* no hello: requests are refused *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            Wire.send_request fd Wire.Stats;
            (match Wire.recv_reply fd with
            | Some (Wire.Error_r _) -> ()
            | _ -> Alcotest.fail "pre-hello request must answer error");
            Unix.close fd;
            (* wrong version: error, then close *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            Wire.send_request fd (Wire.Hello { v = 999; client = "future" });
            (match Wire.recv_reply fd with
            | Some (Wire.Error_r _) -> ()
            | _ -> Alcotest.fail "version mismatch must answer error");
            (match Wire.recv_reply fd with
            | None -> ()
            | _ -> Alcotest.fail "server must close a version-mismatched connection");
            Unix.close fd));
    Alcotest.test_case "hello echoes the pool size and queue limit" `Quick (fun () ->
        with_server
          ~tune:(fun c -> { c with Server.jobs = 2; queue_limit = 48 })
          (fun socket_path _ ->
            Client.with_conn ~socket_path (fun cl ->
                Alcotest.(check int) "jobs echoed" 2 cl.Client.jobs;
                Alcotest.(check int) "queue limit echoed" 48 cl.Client.queue_limit)));
    Alcotest.test_case "stats reflect traffic; shutdown drains" `Quick (fun () ->
        with_server (fun socket_path pid ->
            Client.with_conn ~socket_path (fun cl ->
                expect_verdict "warmup" "refines"
                  (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ());
                let s = Client.stats cl in
                Alcotest.(check bool) "served counted" true (s.Wire.served >= 1);
                Alcotest.(check bool) "uptime sane" true (s.Wire.uptime_s >= 0.0);
                Alcotest.(check bool) "report is an object" true
                  (match s.Wire.report with Json.Obj _ -> true | _ -> false));
            let cl = Client.connect ~socket_path () in
            Client.shutdown cl;
            waitpid_retry pid;
            Alcotest.(check bool) "socket removed on drain" false
              (Sys.file_exists socket_path)));
    deadline_miss_test ~jobs:1 "a deadline miss leaves the connection serving";
    Alcotest.test_case "a jobs=1 daemon answers error to a bad deadline and keeps serving"
      `Quick (fun () ->
        with_server (fun socket_path _ ->
            Client.with_conn ~socket_path (fun cl ->
                List.iteri
                  (fun i deadline_s ->
                    match
                      Client.check cl ~id:i ~deadline_s ~mode:"proposed" ~src:src_id ~tgt:src_id ()
                    with
                    | Wire.Error_r { r_id; _ } ->
                      Alcotest.(check (option int)) "error echoes the id" (Some i) r_id
                    | _ -> Alcotest.failf "deadline %g must answer error" deadline_s)
                  [ -1.0; 0.0; 1e300 ];
                expect_verdict "still serving" "refines"
                  (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ()))));
    Alcotest.test_case "a jobs=1 daemon answers unknown to a 4 x i8 enum_check and keeps serving"
      `Quick (fun () ->
        (* about 4.4e9 input tuples: refused before any is built *)
        let wide = "define i8 @f(i8 %a, i8 %b, i8 %c, i8 %d) {\ne:\n  ret i8 %a\n}" in
        with_server (fun socket_path _ ->
            Client.with_conn ~socket_path (fun cl ->
                expect_verdict "input space too large" "unknown"
                  (Client.check cl ~enum_only:true ~mode:"proposed" ~src:wide ~tgt:wide ());
                expect_verdict "still serving" "refines"
                  (Client.check cl ~mode:"proposed" ~src:src_id ~tgt:src_id ()))));
    deadline_miss_test ~jobs:2 "a deadline miss leaves the connection serving (jobs = 2)";
    Alcotest.test_case "coalescing fans one verdict out to every waiter" `Quick (fun () ->
        with_server (fun socket_path _ ->
            let fd = raw_connect socket_path in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            (* deliver 6 identical queries in ONE write so the server
               reads them in one pass and coalesces them into one task *)
            let frame i =
              Wire.frame_of_payload
                (Json.to_string
                   (Wire.request_to_json
                      (Wire.Check
                         { Wire.id = Some i; mode = "proposed"; src = src_id; tgt = src_id;
                           deadline_s = None; enum_only = false })))
            in
            let burst = String.concat "" (List.init 6 frame) in
            let b = Bytes.of_string burst in
            ignore (Unix.write fd b 0 (Bytes.length b));
            let coalesced = ref 0 in
            for _ = 1 to 6 do
              match Wire.recv_reply fd with
              | Some (Wire.Verdict v) ->
                Alcotest.(check string) "verdict" "refines" v.Wire.verdict;
                if v.Wire.coalesced then incr coalesced
              | _ -> Alcotest.fail "lost a coalesced reply"
            done;
            Alcotest.(check bool) "some replies were coalesced" true (!coalesced > 0)));
  ]

(* Forty distinct pairs over four shapes, refining and not. *)
let batch_pairs : (string * string) array =
  let fn name ty body = Printf.sprintf "define %s @%s(%s %%x) {\ne:\n%s}" ty name ty body in
  Array.init 40 (fun i ->
      let name = Printf.sprintf "f%02d" i in
      let ty = List.nth [ "i4"; "i8"; "i16" ] (i mod 3) in
      match i mod 4 with
      | 0 -> (fn name ty ("  %a = add " ^ ty ^ " %x, 0\n  ret " ^ ty ^ " %a\n"),
              fn name ty ("  ret " ^ ty ^ " %x\n"))
      | 1 -> (fn name ty ("  %a = mul " ^ ty ^ " %x, 2\n  ret " ^ ty ^ " %a\n"),
              fn name ty ("  %a = shl " ^ ty ^ " %x, 1\n  ret " ^ ty ^ " %a\n"))
      | 2 -> (fn name ty ("  ret " ^ ty ^ " %x\n"), fn name ty ("  ret " ^ ty ^ " 0\n"))
      | _ -> (fn name ty ("  %a = add nsw " ^ ty ^ " %x, 1\n  ret " ^ ty ^ " %a\n"),
              fn name ty ("  %a = add " ^ ty ^ " %x, 1\n  ret " ^ ty ^ " %a\n")))

let direct_verdict (src, tgt) : string =
  let parse = Ub_ir.Parser.parse_func_string in
  match Ub_refine.Checker.check Ub_sem.Mode.proposed ~src:(parse src) ~tgt:(parse tgt) with
  | Ub_refine.Checker.Refines -> "refines"
  | Ub_refine.Checker.Counterexample _ -> "counterexample"
  | Ub_refine.Checker.Unknown _ -> "unknown"

(* Every distinct check runs in exactly one [Pool.run_task] envelope,
   in the daemon ([jobs = 1]) or in a worker ([jobs = 2]). *)
let task_done_test ~jobs =
  Alcotest.test_case
    (Printf.sprintf "a jobs=%d daemon counts each distinct check once" jobs)
    `Quick (fun () ->
      with_server
        ~tune:(fun c -> { c with Server.jobs })
        (fun socket_path _ ->
          let pairs = Array.sub batch_pairs 0 10 in
          Client.with_conn ~socket_path (fun cl ->
              ignore (Client.check_batch cl ~mode:"proposed" pairs);
              match Json.member "counters" (Client.stats cl).Wire.report with
              | Some counters ->
                Alcotest.(check (option (float 0.0))) "pool.task_done"
                  (Some (float_of_int (Array.length pairs)))
                  (Json.num_field counters "pool.task_done")
              | None -> Alcotest.fail "stats report has no counters")))

let worker_tests =
  [ task_done_test ~jobs:1;
    task_done_test ~jobs:2;
    Alcotest.test_case "SIGKILL of a worker crashes its running task, not the one queued behind"
      `Quick (fun () ->
        with_server
          ~tune:(fun c -> { c with Server.jobs = 2 })
          (fun socket_path daemon ->
            wait_until "two workers" (fun () -> List.length (children daemon) = 2);
            let fd = raw_connect socket_path in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            (* four hard checks fill both workers' two slots: one worker
               runs id 1 with id 3 behind it, the other ids 2 and 4 *)
            write_all fd
              (String.concat ""
                 (List.init 4 (fun i ->
                      let src, tgt = hard_mul (Printf.sprintf "k%d" (i + 1)) in
                      check_frame (i + 1) ~deadline_s:1.0 ~src ~tgt)));
            Unix.sleepf 0.3;
            Unix.kill (List.hd (children daemon)) Sys.sigkill;
            let verdicts =
              List.init 4 (fun _ ->
                  match recv_within fd "a hard check" with
                  | Some (Wire.Verdict { r_id = Some id; verdict; detail; _ }) ->
                    (id, verdict, detail)
                  | _ -> Alcotest.fail "expected a verdict")
            in
            match List.filter (fun (_, v, _) -> v = "crashed") verdicts with
            | [ (id, _, detail) ] ->
              Alcotest.(check bool) "the crashed task was a worker's running one" true
                (id = 1 || id = 2);
              Alcotest.(check bool) "the crash names the signal" true
                (Ub_support.Util.string_contains ~needle:"SIGKILL" detail);
              List.iter
                (fun (id', v, _) ->
                  if id' <> id then
                    Alcotest.(check string) (Printf.sprintf "id %d" id') "timeout" v)
                verdicts
            | crashed ->
              Alcotest.failf "expected exactly one crashed reply, got %d" (List.length crashed)));
    Alcotest.test_case "a jobs=2 daemon answers a pipelined batch with the checker's verdicts"
      `Quick (fun () ->
        with_server
          ~tune:(fun c -> { c with Server.jobs = 2 })
          (fun socket_path _ ->
            let replies =
              Client.with_conn ~socket_path (fun cl ->
                  Client.check_batch cl ~mode:"proposed" batch_pairs)
            in
            let kinds = Hashtbl.create 4 in
            Array.iteri
              (fun i r ->
                let want = direct_verdict batch_pairs.(i) in
                Hashtbl.replace kinds want ();
                expect_verdict (Printf.sprintf "pair %d" i) want r)
              replies;
            Alcotest.(check bool) "the batch mixes verdicts" true (Hashtbl.length kinds > 1)));
    Alcotest.test_case "SIGKILL of a busy worker: its request crashes, the rest are served"
      `Quick (fun () ->
        with_server
          ~tune:(fun c -> { c with Server.jobs = 2 })
          (fun socket_path daemon ->
            wait_until "two workers" (fun () -> List.length (children daemon) = 2);
            let original = children daemon in
            let fd = raw_connect socket_path in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            (* the hard check takes one worker; the cheap one, sent next
               to it, the other *)
            write_all fd
              (check_frame 1 ~src:hard_mul_src ~tgt:hard_mul_tgt
              ^ check_frame 2 ~src:src_id ~tgt:tgt_zero);
            (match recv_within fd "the cheap request" with
            | Some (Wire.Verdict { r_id = Some 2; verdict; _ }) ->
              Alcotest.(check string) "cheap request answered" "counterexample" verdict
            | _ -> Alcotest.fail "expected the cheap request's verdict first");
            (* the worker still burning CPU is the one on the hard check *)
            let t0 = List.map cpu_ticks original in
            Unix.sleepf 0.3;
            let busy =
              List.fold_left2
                (fun (best, d) pid before ->
                  let d' = cpu_ticks pid - before in
                  if d' > d then (pid, d') else (best, d))
                (List.hd original, -1) original t0
              |> fst
            in
            Unix.kill busy Sys.sigkill;
            (match recv_within fd "the killed request" with
            | Some (Wire.Verdict { r_id = Some 1; verdict; _ }) ->
              Alcotest.(check string) "killed request" "crashed" verdict
            | _ -> Alcotest.fail "expected the hard request to answer crashed");
            wait_until "the respawn" (fun () ->
                let now = children daemon in
                List.length now = 2 && not (List.mem busy now));
            let fresh = List.find (fun p -> not (List.mem p original)) (children daemon) in
            (* two bounded hard checks occupy both workers, the fresh one
               included *)
            let fresh_t0 = cpu_ticks fresh in
            let s1, t1 = hard_mul "h1" and s2, t2 = hard_mul "h2" in
            write_all fd
              (check_frame 3 ~deadline_s:0.5 ~src:s1 ~tgt:t1
              ^ check_frame 4 ~deadline_s:0.5 ~src:s2 ~tgt:t2);
            for _ = 1 to 2 do
              match recv_within fd "a bounded hard check" with
              | Some r -> expect_verdict "bounded hard check" "timeout" r
              | None -> Alcotest.fail "daemon closed the connection"
            done;
            Alcotest.(check bool) "the respawned worker ran a check" true
              (cpu_ticks fresh - fresh_t0 > 0);
            Client.with_conn ~socket_path (fun cl ->
                match Json.member "counters" (Client.stats cl).Wire.report with
                | Some counters ->
                  Alcotest.(check (option (float 0.0))) "one respawn counted" (Some 1.0)
                    (Json.num_field counters "serve.worker_respawn")
                | None -> Alcotest.fail "stats report has no counters")));
    Alcotest.test_case "after a respawn, a closed connection reads EOF at the client" `Quick
      (fun () ->
        with_server
          ~tune:(fun c -> { c with Server.jobs = 2 })
          (fun socket_path daemon ->
            wait_until "two workers" (fun () -> List.length (children daemon) = 2);
            (* open before the respawn, so the fresh worker forks while
               this connection is live in the daemon *)
            let fd = raw_connect socket_path in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            let victim = List.hd (children daemon) in
            Unix.kill victim Sys.sigkill;
            wait_until "the respawn" (fun () ->
                let now = children daemon in
                List.length now = 2 && not (List.mem victim now));
            let n = Wire.max_frame_bytes + 1 in
            write_all fd (String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)));
            (match recv_within fd "the oversized-frame error" with
            | Some (Wire.Error_r _) -> ()
            | _ -> Alcotest.fail "oversized frame must answer error");
            match recv_within fd "EOF after the error" with
            | None -> ()
            | Some _ -> Alcotest.fail "the daemon must close after a bad prefix"));
  ]

let () =
  Alcotest.run "serve"
    [ ("json", json_tests); ("wire", wire_tests); ("framing", frame_tests);
      ("server", server_tests); ("workers", worker_tests);
    ]
