open Tandem_os

type Message.payload +=
  | Audit_append of { transid : string; images : Audit_record.image list }
  | Audit_force
  | Audit_ok

type t = {
  process_name : string;
  audit_trail : Audit_trail.t;
  pair : Process_pair.t;
}

let service net trail ~name pair process =
  let forces =
    lazy
      (Tandem_sim.Metrics.counter_with (Net.metrics net) "audit.forces"
         ~labels:[ ("trail", name) ])
  in
  Process_pair.serve pair process (fun message ->
      match message.Message.payload with
      | Audit_append { transid; images } ->
          (* The batch is checkpointed to the backup before it is considered
             received — this is what lets audit survive the primary's failure
             without having been forced to disc. *)
          Process_pair.checkpoint pair;
          List.iter
            (fun image -> ignore (Audit_trail.append trail ~transid image))
            images;
          Rpc.reply net ~self:process ~to_:message Audit_ok
      | Audit_force ->
          Tandem_sim.Metrics.incr (Lazy.force forces);
          (* Run the force in its own fiber: the 25 ms physical write must not
             stall the service loop, and concurrent forces batch into one
             physical write at the group-commit daemon. *)
          Process.spawn_fiber process (fun () ->
              Audit_trail.force trail;
              Rpc.reply net ~self:process ~to_:message Audit_ok)
      | _ -> ())

let spawn ~net ~node ~trail ~name ~primary_cpu ~backup_cpu =
  (* The trail object is shared between primary and backup: it survives any
     single failure because the pair does; checkpoints model only the bus
     cost of keeping the backup current. *)
  let pair =
    Process_pair.create ~net ~node ~name ~primary_cpu ~backup_cpu
      ~service:(service net trail ~name)
  in
  { process_name = name; audit_trail = trail; pair }

let is_up t = Process_pair.is_up t.pair

let expect_ok = function
  | Ok Audit_ok -> Ok ()
  | Ok _ -> Error `Timeout (* protocol violation; treat as failure *)
  | Error e -> Error e

let append_images net ~self ~node ~name ~transid images =
  expect_ok
    (Rpc.call_name net ~self ~node ~name (Audit_append { transid; images }))

let force net ~self ~node ~name =
  expect_ok (Rpc.call_name net ~self ~node ~name Audit_force)
