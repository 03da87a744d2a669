type state = Running | Suspended | Finished

type t = {
  id : int;
  name : string;
  mutable killed : bool;
  mutable state : state;
}

exception Killed

type 'a resume = ('a, exn) result -> unit

type _ Effect.t += Suspend : ('a resume -> unit) -> 'a Effect.t

(* Fiber-id allocation must not cross simulations: a module-level ref
   would interleave ids between two engines (and race between two
   domains). Spawns that carry their engine draw from its counter; the
   rare engine-less spawns fall back to a domain-local counter, which is
   still race-free because each domain owns its own cell. *)
let domain_next_id = Domain.DLS.new_key (fun () -> ref 0)

let alloc_id = function
  | Some engine -> Engine.alloc_fiber_id engine
  | None ->
      let cell = Domain.DLS.get domain_next_id in
      incr cell;
      !cell

let spawn ?engine ?(name = "fiber") body =
  let fiber = { id = alloc_id engine; name; killed = false; state = Running } in
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> fiber.state <- Finished);
      exnc =
        (function
        | Killed -> fiber.state <- Finished
        | e -> raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Suspend park ->
              Some
                (fun (k : (b, unit) continuation) ->
                  fiber.state <- Suspended;
                  let resumed = ref false in
                  let resume (result : (b, exn) result) =
                    if not !resumed then begin
                      resumed := true;
                      if fiber.killed then discontinue k Killed
                      else begin
                        fiber.state <- Running;
                        match result with
                        | Ok v -> continue k v
                        | Error e -> discontinue k e
                      end
                    end
                  in
                  park resume)
          | _ -> None);
    }
  in
  match_with body () handler;
  fiber

let suspend park = Effect.perform (Suspend park)

let kill fiber = fiber.killed <- true

let is_alive fiber = (not fiber.killed) && fiber.state <> Finished

let id fiber = fiber.id

let sleep engine span =
  (* Fire-and-forget by design: the only waker is the timer itself, so no
     handle is retained. If the fiber is killed while parked, the timer
     still fires — the resume discontinues the continuation, running its
     cleanup (e.g. Fiber_mutex release) at the instant the sleep would
     have ended. Cancelling at kill time would skip that cleanup. *)
  suspend (fun resume ->
      Engine.post_after engine span (fun () -> resume (Ok ())))

let parallel_iter ?(name = "worker") ~workers f items =
  match items with
  | [] | [ _ ] -> List.iter f items
  | _ when workers <= 1 -> List.iter f items
  | _ ->
      let queue = Queue.create () in
      List.iter (fun item -> Queue.add item queue) items;
      let pool = min workers (Queue.length queue) in
      let live = ref pool in
      let failure = ref None in
      let joiner = ref None in
      let body () =
        let rec drain () =
          match Queue.take_opt queue with
          | None -> ()
          | Some item ->
              (try f item
               with e -> if !failure = None then failure := Some e);
              drain ()
        in
        drain ();
        decr live;
        if !live = 0 then
          match !joiner with None -> () | Some resume -> resume (Ok ())
      in
      for i = 1 to pool do
        ignore (spawn ~name:(Printf.sprintf "%s-%d" name i) body)
      done;
      if !live > 0 then suspend (fun resume -> joiner := Some resume);
      (match !failure with Some e -> raise e | None -> ())

let suspend_until engine ~timeout ~on_timeout park =
  suspend (fun resume ->
      let timer =
        Engine.schedule_after engine timeout (fun () ->
            resume (Error (on_timeout ())))
      in
      park (fun result ->
          (* The winner retires the loser: no dead timeout event is left in
             the queue to fire into the stale (already-resumed) guard.
             Cancelling after the timer has fired is a harmless no-op, so a
             late winner — including one racing a killed fiber — is safe. *)
          Engine.cancel timer;
          resume result))
