module PMap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type t = { mutable edges : int PMap.t }

let create () = { edges = PMap.empty }

let call t ~from ~to_ =
  if from <> to_ then begin
    let count = Option.value ~default:0 (PMap.find_opt (from, to_) t.edges) in
    t.edges <- PMap.add (from, to_) (count + 1) t.edges
  end

let observed t =
  PMap.bindings t.edges |> List.map (fun ((f, to_), c) -> (f, to_, c))

let audit t ~declared =
  let conf = Multics_depgraph.Conformance.create ~declared in
  List.iter
    (fun (from, to_, count) ->
      for _ = 1 to count do
        Multics_depgraph.Conformance.record_call conf ~from ~to_
      done)
    (observed t);
  conf

let to_trace_buf t ~now ~buf =
  List.iter
    (fun (from, to_, count) ->
      Multics_obs.Trace_buf.record buf
        { Multics_obs.Trace_buf.ev_time = now;
          ev_phase = Multics_obs.Trace_buf.Counter; ev_cat = "dep";
          ev_name = from ^ "->" ^ to_; ev_tid = 0; ev_id = 0; ev_arg = count;
          ev_ctx = 0 })
    (observed t)
