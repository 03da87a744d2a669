open Tandem_sim

type t = {
  engine : Engine.t;
  pid : Ids.pid;
  name : string;
  cpu : Cpu.t;
  mailbox : Mailbox.t;
  mutable fibers : Fiber.t list; (* every live fiber, plus those finished since the last prune *)
  mutable spawned_since_prune : int;
  mutable live_at_prune : int;
  mutable alive : bool;
  pending_replies : (Message.payload -> unit) Tbl.Int.t; (* by corr *)
}

let create engine ~pid ~name ~cpu =
  {
    engine;
    pid;
    name;
    cpu;
    mailbox = Mailbox.create ();
    fibers = [];
    spawned_since_prune = 0;
    live_at_prune = 0;
    alive = true;
    pending_replies = Tbl.Int.create 8;
  }

let spawn_fiber t body =
  if not t.alive then invalid_arg "Process.spawn_fiber: process is dead";
  let fiber = Fiber.spawn ~engine:t.engine ~name:t.name body in
  t.fibers <- fiber :: t.fibers;
  (* A server spawns a fiber per request, so drop the finished ones once
     the spawns since the last prune outnumber the fibers it kept: the list
     stays O(live) at amortised O(1) per spawn. Killing a finished fiber
     was a no-op, so [kill] loses nothing. *)
  t.spawned_since_prune <- t.spawned_since_prune + 1;
  if t.spawned_since_prune > max 64 t.live_at_prune then begin
    t.fibers <- List.filter Fiber.is_alive t.fibers;
    t.live_at_prune <- List.length t.fibers;
    t.spawned_since_prune <- 0
  end

let start t body = spawn_fiber t (fun () -> body t)

let iter_concurrently t f items =
  let remaining = ref (List.length items) in
  let waker = ref None in
  List.iter
    (fun item ->
      spawn_fiber t (fun () ->
          f item;
          decr remaining;
          if !remaining = 0 then
            match !waker with
            | Some resume ->
                waker := None;
                resume (Ok ())
            | None -> ()))
    items;
  if !remaining > 0 then Fiber.suspend (fun resume -> waker := Some resume)

let pid t = t.pid

let cpu t = t.cpu

let mailbox t = t.mailbox

let is_alive t = t.alive

let kill t =
  if t.alive then begin
    t.alive <- false;
    List.iter Fiber.kill t.fibers;
    Mailbox.flush_dead t.mailbox;
    (* Outstanding RPC completions belong to the fibers just killed; their
       timeout timers will fire and be ignored. Dropping the table merely
       stops replies from reaching a corpse. *)
    Tbl.Int.reset t.pending_replies
  end

let deliver t message =
  if t.alive then begin
    match message.Message.kind with
    | Message.Reply -> (
        match Tbl.Int.find_opt t.pending_replies message.Message.corr with
        | Some complete ->
            Tbl.Int.remove t.pending_replies message.Message.corr;
            complete message.Message.payload
        | None ->
            (* Late reply after the requester timed out: discard. *)
            ())
    | Message.Request | Message.Oneway -> Mailbox.enqueue t.mailbox message
  end

let expect_reply t ~corr complete =
  Tbl.Int.replace t.pending_replies corr complete

let forget_reply t ~corr = Tbl.Int.remove t.pending_replies corr

let receive ?filter t = Mailbox.receive ?filter t.mailbox
