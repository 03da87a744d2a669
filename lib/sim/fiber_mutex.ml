type t = {
  mutable held : bool;
  queue : unit Fiber.resume Queue.t; (* oldest first *)
}

let create () = { held = false; queue = Queue.create () }

let rec lock t =
  if not t.held then t.held <- true
  else begin
    match Fiber.suspend (fun resume -> Queue.add resume t.queue) with
    | () -> ()
    | exception e ->
        (* Ownership was handed to this fiber as it was being killed: pass
           it on before propagating. *)
        unlock t;
        raise e
  end

and unlock t =
  if not t.held then invalid_arg "Fiber_mutex.unlock: not locked";
  match Queue.take_opt t.queue with
  | None -> t.held <- false
  | Some resume ->
      (* Ownership passes directly to the next waiter. *)
      resume (Ok ())

let with_lock t f =
  lock t;
  match f () with
  | value ->
      unlock t;
      value
  | exception e ->
      unlock t;
      raise e

let locked t = t.held
