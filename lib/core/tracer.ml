(* Cell [from * n + to_] counts the calls from [from] into [to_]. *)
type t = int array

let n = Array.length Registry.names

let create () = Array.make (n * n) 0

let call t ~from ~to_ =
  let from = (from : Registry.manager :> int)
  and to_ = (to_ : Registry.manager :> int) in
  if from <> to_ then begin
    let i = (from * n) + to_ in
    t.(i) <- t.(i) + 1
  end

let observed t =
  List.init (n * n) (fun i ->
      (Registry.names.(i / n), Registry.names.(i mod n), t.(i)))
  |> List.filter (fun (_, _, count) -> count > 0)
  |> List.sort compare

let audit t ~declared =
  Multics_depgraph.Conformance.create ~declared ~observed:(observed t)

let to_trace_buf t ~now ~buf =
  List.iter
    (fun (from, to_, count) ->
      Multics_obs.Trace_buf.record buf
        { Multics_obs.Trace_buf.ev_time = now;
          ev_phase = Multics_obs.Trace_buf.Counter; ev_cat = "dep";
          ev_name = from ^ "->" ^ to_; ev_tid = 0; ev_id = 0; ev_arg = count;
          ev_ctx = 0 })
    (observed t)
