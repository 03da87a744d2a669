open Tandem_sim

type t = {
  engine : Engine.t;
  name : string;
  access_time : Sim_time.span;
  mutable up : bool;
  mutable busy_until : Sim_time.t;
}

let create engine ~name ~access_time =
  { engine; name; access_time; up = true; busy_until = Sim_time.zero }

let is_up t = t.up

let mark_down t =
  t.up <- false;
  t.busy_until <- Engine.now t.engine

let mark_up t = t.up <- true

let io t =
  if not t.up then invalid_arg ("Drive.io: " ^ t.name ^ " is down");
  let now = Engine.now t.engine in
  let start = max now t.busy_until in
  t.busy_until <- Sim_time.add start t.access_time;
  Fiber.sleep t.engine (Sim_time.diff t.busy_until now)

let busy_until t = t.busy_until
