(** 802.11a transmission-rate adaptation, Table 1 of the paper.

    The standard picks the link data rate based on signal quality; the paper
    (following Manshaei & Turletti's 802.11a measurements) reduces this to a
    deterministic rate-vs-distance threshold table:

    {v
    Rate (Mbps)            6    12   18   24   36   48   54
    Distance threshold (m) 200  145  105  85   60   40   35
    v}

    A link of length [d] runs at the highest rate whose threshold is at least
    [d]; beyond 200 m the nodes cannot communicate. *)

type entry = { rate_mbps : float; threshold_m : float }

(** A rate table is a list of entries sorted by strictly decreasing rate
    (hence strictly increasing distance threshold). The last (lowest) rate is
    the basic rate used for 802.11 broadcast in basic-rate mode. *)
type t = { entries : entry list }

let invariant { entries } =
  let rec ok = function
    | a :: (b :: _ as rest) ->
        a.rate_mbps > b.rate_mbps && a.threshold_m < b.threshold_m && ok rest
    | [ e ] -> e.rate_mbps > 0. && e.threshold_m > 0.
    | [] -> false
  in
  ok entries

let make entries =
  let t = { entries } in
  if not (invariant t) then
    invalid_arg "Rate_table.make: rates must be strictly decreasing";
  t

(** The paper's Table 1 (IEEE 802.11a). *)
let ieee80211a =
  make
    [
      { rate_mbps = 54.; threshold_m = 35. };
      { rate_mbps = 48.; threshold_m = 40. };
      { rate_mbps = 36.; threshold_m = 60. };
      { rate_mbps = 24.; threshold_m = 85. };
      { rate_mbps = 18.; threshold_m = 105. };
      { rate_mbps = 12.; threshold_m = 145. };
      { rate_mbps = 6.; threshold_m = 200. };
    ]

(** IEEE 802.11b: 1–11 Mbps. The paper contrasts 802.11b/g (3
    non-overlapping channels) with 802.11a (12 channels); DSSS at 2.4 GHz
    reaches farther at its low rates. Thresholds follow the same
    measurement methodology as Table 1. *)
let ieee80211b =
  make
    [
      { rate_mbps = 11.; threshold_m = 160. };
      { rate_mbps = 5.5; threshold_m = 250. };
      { rate_mbps = 2.; threshold_m = 350. };
      { rate_mbps = 1.; threshold_m = 450. };
    ]

let default = ieee80211a

let entries t = t.entries

(** All supported rates, highest first. *)
let rates t = List.map (fun e -> e.rate_mbps) t.entries

(** Radio propagation range: the largest distance threshold. *)
let range t =
  List.fold_left (fun acc e -> Float.max acc e.threshold_m) 0. t.entries

(** The basic (lowest, most robust) rate; 802.11 transmits broadcast frames
    at this rate unless multi-rate multicast is available. *)
let basic_rate t =
  List.fold_left (fun acc e -> Float.min acc e.rate_mbps) infinity t.entries

(** [rate_at_distance t d] is the maximum link rate at distance [d] meters,
    or [None] when [d] exceeds the radio range. *)
let rate_at_distance t d =
  let rec go = function
    | [] -> None
    | e :: rest -> if d <= e.threshold_m then Some e.rate_mbps else go rest
  in
  go t.entries

(** [scale_thresholds f t] scales every distance threshold by [f] — used by
    the adaptive-power-control extension (paper §8), where a lower transmit
    power shrinks every rate region proportionally. *)
let scale_thresholds f t =
  if f <= 0. then invalid_arg "Rate_table.scale_thresholds: factor must be > 0";
  make
    (List.map (fun e -> { e with threshold_m = e.threshold_m *. f }) t.entries)
