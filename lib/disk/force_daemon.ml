open Tandem_sim

type t = {
  volume : Volume.t;
  window : Sim_time.span;
  mutable wishes : unit Fiber.resume Queue.t; (* oldest first *)
  mutable kick : unit Fiber.resume option;
  mutable ios : int;
}

let create ?(window = 0) volume =
  let t =
    {
      volume;
      window;
      wishes = Queue.create ();
      kick = None;
      ios = 0;
    }
  in
  let engine = Volume.engine volume in
  let metrics = Volume.metrics volume in
  (* The daemon lives outside any process: it can never be killed by a
     processor failure. *)
  ignore
    (Fiber.spawn ~engine ~name:("force-daemon:" ^ Volume.name volume) (fun () ->
         let rec loop () =
           (if Queue.is_empty t.wishes then
              Fiber.suspend (fun resume -> t.kick <- Some resume));
           (* Group-commit window: linger after the first wish so wishes
              arriving just apart still share one physical write. *)
           if t.window > 0 then Fiber.sleep engine t.window;
           let batch = t.wishes in
           t.wishes <- Queue.create ();
           if not (Queue.is_empty batch) then begin
             (* Everything appended before this instant is covered by this
                one physical write. *)
             Volume.force_io t.volume;
             t.ios <- t.ios + 1;
             let size = Queue.length batch in
             Metrics.incr (Metrics.counter metrics "disk.force_batches");
             Metrics.observe
               (Metrics.sample metrics "disk.force_batch_size")
               (float_of_int size);
             Queue.iter (fun resume -> resume (Ok ())) batch
           end;
           loop ()
         in
         loop ()));
  t

let force t =
  Fiber.suspend (fun resume ->
      Queue.add resume t.wishes;
      match t.kick with
      | Some kick ->
          t.kick <- None;
          kick (Ok ())
      | None -> ())

let physical_forces t = t.ios
