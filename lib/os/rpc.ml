open Tandem_sim

type error = [ `Timeout | `No_such_name ]

let pp_error formatter = function
  | `Timeout -> Format.pp_print_string formatter "timeout"
  | `No_such_name -> Format.pp_print_string formatter "no such name"

exception Rpc_timeout

let call net ~self ~dst ?timeout payload =
  let timeout = Option.value timeout ~default:Hw_config.rpc_timeout in
  let engine = Net.engine net in
  let corr = Net.fresh_corr net in
  let message = Message.request ~src:(Process.pid self) ~dst ~corr payload in
  match
    (* The reply/timeout race: the reply wins by resuming (which cancels
       the timeout event); the timeout wins by forgetting the correlation
       entry (so a late reply is dropped at the table). *)
    Fiber.suspend_until engine ~timeout
      ~on_timeout:(fun () ->
        Process.forget_reply self ~corr;
        Rpc_timeout)
      (fun resume ->
        Process.expect_reply self ~corr (fun reply_payload ->
            resume (Ok reply_payload));
        Net.send net message)
  with
  | reply_payload -> Ok reply_payload
  | exception Rpc_timeout -> Error `Timeout

let call_name net ~self ~node ~name ?timeout ?retries payload =
  let retries = Option.value retries ~default:Hw_config.rpc_retries in
  Metrics.incr (Metrics.family_counter (Net.rpc_calls_family net) name);
  let rec attempt remaining =
    match Node.lookup_name (Net.node net node) name with
    | None ->
        if remaining > 0 then begin
          (* The name may be re-registered by a takeover in progress. *)
          Fiber.sleep (Net.engine net) Hw_config.net_retransmit;
          attempt (remaining - 1)
        end
        else Error `No_such_name
    | Some dst -> (
        match call net ~self ~dst ?timeout payload with
        | Ok _ as ok -> ok
        | Error `Timeout when remaining > 0 ->
            (* The timed-out attempt itself waited one timeout; the retry
               departs at once. *)
            attempt (remaining - 1)
        | Error _ as err -> err)
  in
  attempt retries

let reply net ~self ~to_ payload =
  Net.send net (Message.reply_to to_ ~src:(Process.pid self) payload)
