open Tandem_sim

type t = {
  engine : Engine.t;
  node : Ids.node_id;
  mutable up : bool;
  mutable busy_until : Sim_time.t;
  mutable busy_total : Sim_time.span;
}

let create engine ~node =
  { engine; node; up = true; busy_until = Sim_time.zero; busy_total = 0 }

let node t = t.node

let is_up t = t.up

let mark_down t =
  t.up <- false;
  t.busy_until <- Engine.now t.engine

let mark_up t = t.up <- true

let consume t span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  let now = Engine.now t.engine in
  let start = max now t.busy_until in
  t.busy_until <- Sim_time.add start span;
  t.busy_total <- t.busy_total + span;
  let delay = Sim_time.diff t.busy_until now in
  if delay > 0 then Fiber.sleep t.engine delay

let total_busy t = t.busy_total
