(** Radio channel planning and co-channel interference accounting.

    The paper assumes "the radio channels of the neighboring APs are
    configured such that they do not interfere" (§3.1, citing 802.11a's 12
    non-overlapping channels) and notes that BLA/MLA implicitly reduce the
    interference that remains. This module supplies both halves of that
    story:

    - a conflict graph between APs (within carrier-sense range of each
      other) and a DSATUR greedy coloring onto the available channels, so
      scenarios can be checked against the paper's assumption; and
    - co-channel interference metrics: when the deployment is too dense to
      color perfectly, an AP's multicast airtime leaks onto its same-channel
      conflict neighbors, and the metric charges each AP the multicast load
      of its co-channel conflicting peers. *)

(** 802.11a in US/Canada: 12 non-overlapping channels (§3.1). *)
let default_n_channels = 12

(** APs within [range] meters of each other contend/interfere when
    co-channel. Carrier sense typically reaches farther than data decoding;
    a common engineering rule is twice the data range. *)
let conflict_edges ~range (ap_pos : Point.t array) =
  let n = Array.length ap_pos in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Point.within range ap_pos.(i) ap_pos.(j) then
        edges := (i, j) :: !edges
    done
  done;
  List.rev !edges

let adjacency ~n_aps edges =
  let adj = Array.make n_aps [] in
  List.iter
    (fun (i, j) ->
      adj.(i) <- j :: adj.(i);
      adj.(j) <- i :: adj.(j))
    edges;
  adj

type assignment = {
  channels : int array;  (** AP index -> channel in [0, n_channels) *)
  n_channels : int;
  conflict_edges : (int * int) list;
  residual_conflicts : int;
      (** same-channel conflict edges the coloring could not avoid *)
}

(** DSATUR greedy coloring: repeatedly color the uncolored vertex with the
    highest saturation (distinct neighbor colors), breaking ties by degree.
    When all [n_channels] colors clash, pick the color least used among the
    vertex's neighbors (graceful degradation instead of failure). *)
let color ?(n_channels = default_n_channels) ~n_aps edges =
  if n_channels <= 0 then invalid_arg "Channels.color: n_channels <= 0";
  let adj = adjacency ~n_aps edges in
  let channels = Array.make n_aps (-1) in
  let degree = Array.map List.length adj in
  let saturation v =
    let seen = Array.make n_channels false in
    List.iter (fun u -> if channels.(u) >= 0 then seen.(channels.(u)) <- true) adj.(v);
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen
  in
  for _ = 1 to n_aps do
    (* next vertex: uncolored, max saturation, then max degree *)
    let best = ref (-1) in
    for v = 0 to n_aps - 1 do
      if channels.(v) < 0 then
        match !best with
        | -1 -> best := v
        | b ->
            let sv = saturation v and sb = saturation b in
            if sv > sb || (sv = sb && degree.(v) > degree.(b)) then best := v
    done;
    let v = !best in
    if v >= 0 then begin
      let used = Array.make n_channels 0 in
      List.iter
        (fun u -> if channels.(u) >= 0 then used.(channels.(u)) <- used.(channels.(u)) + 1)
        adj.(v);
      (* first free color, else least used among neighbors *)
      let free = ref (-1) in
      for c = n_channels - 1 downto 0 do
        if used.(c) = 0 then free := c
      done;
      let c =
        if !free >= 0 then !free
        else begin
          let m = ref 0 in
          for c = 1 to n_channels - 1 do
            if used.(c) < used.(!m) then m := c
          done;
          !m
        end
      in
      channels.(v) <- c
    end
  done;
  let residual_conflicts =
    List.length
      (List.filter (fun (i, j) -> channels.(i) = channels.(j)) edges)
  in
  { channels; n_channels; conflict_edges = edges; residual_conflicts }

(** [co_channel_interference t ~loads] charges each AP the summed multicast
    load of the co-channel APs it conflicts with — the airtime its cell
    loses to neighbors it can hear. Returns the per-AP interference array. *)
let co_channel_interference t ~(loads : float array) =
  let n = Array.length loads in
  let interference = Array.make n 0. in
  List.iter
    (fun (i, j) ->
      if t.channels.(i) = t.channels.(j) then begin
        interference.(i) <- interference.(i) +. loads.(j);
        interference.(j) <- interference.(j) +. loads.(i)
      end)
    t.conflict_edges;
  interference

let total_interference t ~loads =
  Array.fold_left ( +. ) 0. (co_channel_interference t ~loads)

let pp ppf t =
  Fmt.pf ppf "channels: %d colors, %d conflict edges, %d residual co-channel"
    t.n_channels
    (List.length t.conflict_edges)
    t.residual_conflicts
