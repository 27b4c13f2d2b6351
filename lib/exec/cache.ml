(* A persistent on-disk verdict cache.  Entries are raw strings keyed by
   a canonical hash; callers (e.g. [Ub_refine.Verdict_cache]) own the
   value encoding.

   The store is a single append-only log [dir]/journal.bin with an
   in-memory index.  Appends are guarded by an fcntl lock on
   [dir]/journal.lock so records from concurrent multi-process writers
   never interleave mid-record, and lookups are hashtable hits -- the
   right shape for the serve daemon, which stores thousands of tiny
   verdicts and cannot afford three syscalls per store.  When the log's
   dead weight (overwritten keys) passes a threshold it is compacted:
   under the same lock, the live index is rewritten to a temp file and
   atomically renamed onto the journal, so readers never observe a
   half-compacted log.  A reader that misses in its index first replays
   whatever other processes have appended since its last look (and
   detects a concurrent compaction by inode change), so cooperating
   processes -- a daemon and a batch run on one cache directory, say --
   share entries live.

   Journal record layout (little-endian-free, explicit big-endian):

     u32 key length | u32 value length | key bytes | value bytes

   A record truncated by a crash mid-append can only be the last one in
   the file (appends are serialized by the lock); replay stops at the
   truncation point, and the next store, under the lock, truncates the
   file back to the last intact record before appending, so no later
   record ever lands behind the torn bytes. *)

type t = {
  jpath : string;
  mutable wfd : Unix.file_descr; (* O_APPEND writer, reopened after compaction *)
  lockfd : Unix.file_descr;
  index : (string, string) Hashtbl.t;
  mutable replayed : int; (* bytes of journal already folded into [index] *)
  mutable size : int; (* file size at the last replay; > [replayed] means a torn tail *)
  mutable ino : int; (* inode of the replayed journal, to detect compaction *)
  mutable live : int; (* bytes of records currently live in [index] *)
}

let mkdir_p = Ub_support.Util.mkdir_p

(* Canonical key: length-prefixed concatenation (a la netstrings) of the
   components, hashed.  The length prefix is what makes the key
   injective: ("ab","c") and ("a","bc") must not collide. *)
let key ~(parts : string list) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let record_bytes k v = 8 + String.length k + String.length v

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

let encode_record k v : Bytes.t =
  let kl = String.length k and vl = String.length v in
  let b = Bytes.create (8 + kl + vl) in
  Bytes.set_int32_be b 0 (Int32.of_int kl);
  Bytes.set_int32_be b 4 (Int32.of_int vl);
  Bytes.blit_string k 0 b 8 kl;
  Bytes.blit_string v 0 b (8 + kl) vl;
  b

(* fcntl-based whole-file lock on the sidecar lock file.  fcntl locks
   are per-process, which is exactly the granularity we need: the
   hazard is two *processes* interleaving appends or compacting over
   each other; within one process the cache is used sequentially. *)
let with_lock (t : t) (f : unit -> 'a) : 'a =
  ignore (Unix.lseek t.lockfd 0 Unix.SEEK_SET);
  Unix.lockf t.lockfd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.lseek t.lockfd 0 Unix.SEEK_SET);
      Unix.lockf t.lockfd Unix.F_ULOCK 0)
    f

let open_writer jpath = Unix.openfile jpath [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644

let fd_ino fd = (Unix.fstat fd).Unix.st_ino

(* Fold the records of the journal open on [fd] from [from] into the
   index and note the file size in [t.size]; returns the offset of the
   first truncated or unreadable byte (= file size when clean). *)
let replay_into (t : t) (fd : Unix.file_descr) ~(from : int) : int =
  let size = (Unix.fstat fd).Unix.st_size in
  t.size <- size;
  if size <= from then from
  else begin
    ignore (Unix.lseek fd from Unix.SEEK_SET);
    let len = size - from in
    let buf = Bytes.create len in
    let rec read_all off =
      if off >= len then len
      else
        match Unix.read fd buf off (len - off) with
        | 0 -> off
        | n -> read_all (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all off
    in
    let got = read_all 0 in
    let pos = ref 0 in
    let ok = ref true in
    while !ok && !pos + 8 <= got do
      let kl = get_u32 buf !pos and vl = get_u32 buf (!pos + 4) in
      if kl < 0 || vl < 0 || !pos + 8 + kl + vl > got then ok := false
      else begin
        let k = Bytes.sub_string buf (!pos + 8) kl in
        let v = Bytes.sub_string buf (!pos + 8 + kl) vl in
        (match Hashtbl.find_opt t.index k with
        | Some old -> t.live <- t.live - record_bytes k old
        | None -> ());
        Hashtbl.replace t.index k v;
        t.live <- t.live + record_bytes k v;
        pos := !pos + 8 + kl + vl
      end
    done;
    from + !pos
  end

(* Re-read anything other processes appended since we last looked; a
   changed inode means someone compacted, so start over from scratch.
   [t.ino] is the inode [t.wfd] appends to, and the index must be
   replayed from that same file.  Every inode is taken from an open
   descriptor, never from a stat of the path: a compaction may rename
   a new file over the journal between an open and a stat, and an
   inode taken from the path would then name a file the descriptor
   does not point at, so the writer would go on appending to the
   unlinked old journal and its records would be lost. *)
let rec refresh (t : t) : unit =
  match Unix.openfile t.jpath [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    let stale =
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let ino = fd_ino fd in
      if ino <> t.ino then begin
        (* the O_APPEND writer still points at the old (renamed-over) file *)
        Unix.close t.wfd;
        t.wfd <- open_writer t.jpath;
        t.ino <- fd_ino t.wfd;
        Hashtbl.reset t.index;
        t.live <- 0;
        t.replayed <- 0
      end;
      if ino = t.ino then begin
        t.replayed <- replay_into t fd ~from:t.replayed;
        false
      end
      else true (* compacted again since [fd] was opened *)
    in
    if stale then refresh t

let open_journal dir =
  mkdir_p dir;
  let jpath = Filename.concat dir "journal.bin" in
  let wfd = open_writer jpath in
  let lockfd =
    Unix.openfile (Filename.concat dir "journal.lock") [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  let t =
    { jpath; wfd; lockfd; index = Hashtbl.create 1024; replayed = 0; size = 0;
      ino = fd_ino wfd; live = 0 }
  in
  refresh t;
  t

(* Compact: under the lock, fold in every record on disk (including a
   competitor's appends), write the live set to a temp file, rename it
   onto the journal.  The rename is the commit point: a reader either
   sees the old inode (and keeps replaying the old log it has open) or
   the new one (and restarts from offset 0 via [refresh]). *)
let compact (t : t) : unit =
  with_lock t @@ fun () ->
  refresh t;
  let tmp = Printf.sprintf "%s.tmp.%d" t.jpath (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bytes = ref 0 in
  (try
     Hashtbl.iter
       (fun k v ->
         let b = encode_record k v in
         Ub_support.Util.write_all fd b 0 (Bytes.length b);
         bytes := !bytes + Bytes.length b)
       t.index;
     Unix.close fd
   with e ->
     Unix.close fd;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp t.jpath;
  Unix.close t.wfd;
  t.wfd <- open_writer t.jpath;
  t.ino <- fd_ino t.wfd;
  t.replayed <- !bytes;
  t.size <- !bytes;
  t.live <- !bytes

(* Auto-compaction threshold: once the log tops 1 MiB, compact when
   less than half of it is live.  Checked after appends, so the
   amortized cost is one stat-free comparison per store. *)
let maybe_compact (t : t) : unit =
  if t.replayed > 1_048_576 && t.live * 2 < t.replayed then compact t

let find t k : string option =
  match Hashtbl.find_opt t.index k with
  | Some v -> Some v
  | None ->
    (* maybe another process stored it since we last replayed *)
    refresh t;
    Hashtbl.find_opt t.index k

let store t k (v : string) : unit =
  let b = encode_record k v in
  with_lock t (fun () ->
      (* fold in foreign appends first so [replayed] tracks the true end
         of file: appending while it pointed mid-way into a competitor's
         record would make every later tail-replay misparse *)
      refresh t;
      (* a crashed writer's torn record: cut it off, or this append
         would land behind bytes no replay can get past *)
      if t.size > t.replayed then Unix.ftruncate t.wfd t.replayed;
      Ub_support.Util.write_all t.wfd b 0 (Bytes.length b);
      (match Hashtbl.find_opt t.index k with
      | Some old -> t.live <- t.live - record_bytes k old
      | None -> ());
      Hashtbl.replace t.index k v;
      t.live <- t.live + record_bytes k v;
      t.replayed <- t.replayed + Bytes.length b;
      t.size <- t.replayed);
  (* outside the lock: [compact] takes it itself, and fcntl locks do
     not nest (an inner unlock would drop the outer lock) *)
  maybe_compact t

let close t =
  (try Unix.close t.wfd with Unix.Unix_error _ -> ());
  try Unix.close t.lockfd with Unix.Unix_error _ -> ()

let journal_size t = t.replayed
