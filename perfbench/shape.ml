(* The shape of the query stream `ubc hunt --daemon` sends, the daemon
   client the repository has, measured rather than assumed:

     bench.exe --stream-shape PROGRAMS

   For every IR lane of the hunt workload's entries and of the clean
   control, at the committed seed, it rebuilds the requests
   [Hunt.run_daemon] would send for programs 0 .. PROGRAMS-1: per chunk
   of [batch] programs and per lane, one pipelined batch of the pairs
   the lane changed, sent together and all awaited before the next.  It
   prints the batch sizes (the requests in flight on the connection) and
   the share of requests whose verdict-cache key was already sent
   earlier in the stream (a read). *)

open Common
module Hunt = Ub_hunt.Hunt

let batch = (Hunt.default_remote ~socket:"").Hunt.batch

let run ~(programs : int) =
  let seen = Hashtbl.create 4096 in
  let sizes = ref [] and requests = ref 0 and repeats = ref 0 in
  List.iter
    (fun (e, _) ->
      let cfg = Hunt_load.config e ~index:0 in
      let cfg = { cfg with Hunt.programs } in
      let lanes = List.filter (fun l -> l.Hunt.lane_backend = None) cfg.Hunt.lanes in
      let chunk = ref 0 in
      while !chunk < programs do
        let n = min batch (programs - !chunk) in
        let fns = List.init n (fun i -> Hunt.generate cfg (!chunk + i)) in
        List.iter
          (fun (lane : Hunt.lane) ->
            let size = ref 0 in
            List.iter
              (fun fn ->
                let fn' = Hunt.optimize lane fn in
                if not (Ub_ir.Func.equal fn fn') then begin
                  incr size;
                  incr requests;
                  let key =
                    Ub_refine.Verdict_cache.key ~mode:lane.Hunt.lane_mode
                      ~kind:Ub_refine.Verdict_cache.combined_kind ~src:fn ~tgt:fn' ()
                  in
                  if Hashtbl.mem seen key then incr repeats else Hashtbl.replace seen key ()
                end)
              fns;
            if !size > 0 then sizes := float_of_int !size :: !sizes)
          lanes;
        chunk := !chunk + n
      done)
    Hunt_load.budgets;
  let a = Array.of_list !sizes in
  Array.sort compare a;
  let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a)) in
  Printf.printf
    "requests %d in %d batches (%d programs per chunk)\n\
     batch size: mean %.2f, p10 %.0f, p50 %.0f, p90 %.0f, max %.0f\n\
     repeated cache keys: %d (share %.4f)\n"
    !requests (Array.length a) batch mean (percentile a 0.10) (percentile a 0.50)
    (percentile a 0.90) (percentile a 1.0) !repeats
    (ratio (float_of_int !repeats) (float_of_int (max 1 !requests)));
  print_string "batch sizes (size, batches):";
  let counts = Hashtbl.create 32 in
  Array.iter (fun s -> Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))) a;
  List.iter
    (fun s -> Printf.printf " (%.0f, %d);" s (Hashtbl.find counts s))
    (List.sort_uniq compare (Array.to_list a));
  print_newline ()
