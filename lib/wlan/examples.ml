(** The paper's worked examples, as problem instances. These drive the unit tests: every step-by-step example in the
    paper (§3.2, §4, §5, §6, Fig. 4) is replayed against them. *)

(** {1 Figure 1}

    Two APs, five users. Link rates (Mbps):
    - a1 -> u1:3, u2:6, u3:4, u4:4, u5:4
    - a2 -> u3:5, u4:5, u5:3 (u1, u2 out of range)

    Users u1, u3 request session s1; users u2, u4, u5 request s2. Both APs
    have multicast budget 1. User indices 0..4 = u1..u5; AP 0 = a1, 1 = a2;
    session 0 = s1, 1 = s2. *)

let fig1_rates =
  [| [| 3.; 6.; 4.; 4.; 4. |]; [| 0.; 0.; 5.; 5.; 3. |] |]

let fig1_user_session = [| 0; 1; 0; 1; 1 |]

(** Figure 1 with both session rates set to [rate_mbps] — 3 Mbps for the MNU
    walk-through, 1 Mbps for the BLA and MLA walk-throughs. *)
let fig1 ~session_rate_mbps =
  Problem.make
    ~session_rates:[| session_rate_mbps; session_rate_mbps |]
    ~user_session:(Array.copy fig1_user_session)
    ~rates:(Array.map Array.copy fig1_rates)
    ~budget:1. ()

(** {1 Figure 4} — the non-convergence example for simultaneous local
    decisions. Four users, one session at 1 Mbps:
    - a1 -> u1:5, u2:4, u3:4
    - a2 -> u2:4, u3:4, u4:5

    Initially u1, u2 are associated with a1 and u3, u4 with a2. When u2 and
    u3 re-decide simultaneously they swap forever. (The paper's §4.2 prose
    has a u5/u4 typo; the figure shows four users, which is what we model.) *)

let fig4 =
  Problem.make ~session_rates:[| 1. |] ~user_session:[| 0; 0; 0; 0 |]
    ~rates:[| [| 5.; 4.; 4.; 0. |]; [| 0.; 4.; 4.; 5. |] |]
    ~budget:1. ()

(** The initial association of Figure 4: u1,u2 -> a1; u3,u4 -> a2. *)
let fig4_initial : Association.t = [| 0; 0; 1; 1 |]
