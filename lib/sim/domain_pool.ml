let jobs_from_env () =
  match Sys.getenv_opt "TANDEM_JOBS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "TANDEM_JOBS=%s: expected a positive integer" s))

(* One result slot per task, written by exactly one worker. The join
   ([Domain.join] on every spawned domain) publishes all slot writes to
   the calling domain, so no per-slot synchronization is needed — only
   the task counter is contended, and only via [Atomic.fetch_and_add]. *)
let map ?(chunk = 1) ~jobs f items =
  if chunk < 1 then invalid_arg "Domain_pool.map: chunk must be >= 1";
  match items with
  | [] -> []
  | _ when jobs <= 1 -> List.map f items
  | _ ->
      let tasks = Array.of_list items in
      let n = Array.length tasks in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec drain () =
          let start = Atomic.fetch_and_add next chunk in
          if start < n then begin
            let stop = min n (start + chunk) in
            for i = start to stop - 1 do
              results.(i) <-
                Some
                  (match f tasks.(i) with
                  | v -> Ok v
                  | exception e -> Error (e, Printexc.get_raw_backtrace ()))
            done;
            drain ()
          end
        in
        drain ()
      in
      (* The calling domain is worker zero; only jobs - 1 extras spawn. *)
      let extras =
        List.init (min (jobs - 1) (n - 1)) (fun _ -> Domain.spawn worker)
      in
      worker ();
      List.iter Domain.join extras;
      (* Surface the lowest-indexed failure — deterministic regardless of
         which worker hit it or in what real-time order tasks finished. *)
      Array.iter
        (function
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | Some (Ok _) | None -> ())
        results;
      Array.to_list
        (Array.map
           (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
           results)
