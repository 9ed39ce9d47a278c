package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"parrot/internal/cluster"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
)

// cmdCluster renders a node's cluster view: ring layout with ownership
// shares, per-node membership states, and the forward/retry/rescue
// counters scraped from /metricsz. One-shot by default; -watch redraws
// like top, -expect turns the scrape into a CI assertion.
func cmdCluster(args []string) error {
	fs, server := newFlagSet("cluster")
	watch := fs.Duration("watch", 0, "re-scrape and redraw on this interval (0 = one-shot)")
	jsonOut := fs.Bool("json", false, "emit the raw /clusterz body as JSON")
	var expects expectList
	fs.Var(&expects, "expect", "assert `series op value` against /metricsz (e.g. 'parrot_cluster_forwards_total{outcome=\"ok\"}>=1'); repeatable")
	fs.Parse(args)

	c := client.New(*server)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st, err := c.Cluster(ctx)
		var exp *telemetry.Exposition
		if err == nil {
			exp, err = c.MetricsText(ctx)
		}
		cancel()
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := emitJSON(st); err != nil {
				return err
			}
		} else {
			if *watch > 0 {
				fmt.Print("\x1b[2J\x1b[H") // clear + home
			}
			renderCluster(st, exp, c.Base())
		}
		if err := expects.check(exp); err != nil {
			return err
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
	}
}

// ownershipShares samples the digest space to estimate each ring member's
// owned fraction. The ring is a pure function of (members, vnodes), so
// the client-side rebuild matches the server's placement exactly.
func ownershipShares(members []string, vnodes int) map[string]float64 {
	out := make(map[string]float64, len(members))
	if len(members) == 0 {
		return out
	}
	ring := cluster.NewRing(members, vnodes)
	const samples = 4096
	for i := 0; i < samples; i++ {
		// Spread probe keys uniformly over the 64-bit key space the ring
		// hashes digests into.
		key := fmt.Sprintf("%016x", uint64(i)*(^uint64(0)/samples))
		if owner, ok := ring.Owner(key); ok {
			out[owner] += 1.0 / samples
		}
	}
	return out
}

// renderCluster draws the cluster dashboard from one /clusterz +
// /metricsz scrape pair.
func renderCluster(st *proto.ClusterStatus, e *telemetry.Exposition, base string) {
	get := func(key string) float64 { v, _ := e.Get(key); return v }

	if len(st.Nodes) == 0 {
		fmt.Printf("%s: single-node daemon (no -peers)\n", base)
		return
	}
	fmt.Printf("cluster view from %s  epoch %d  ring %d/%d nodes × %d vnodes\n",
		st.Self, st.Epoch, len(st.Members), len(st.Nodes), st.VNodes)

	shares := ownershipShares(st.Members, st.VNodes)
	fmt.Printf("%-34s %-8s %-5s %6s %7s %6s %6s %6s %8s\n",
		"NODE", "STATE", "RING", "OWN%", "PROBES", "FAILS", "FLAPS", "REJOIN", "LASTERR")
	for _, n := range st.Nodes {
		name := n.ID
		if n.Self {
			name += " *"
		}
		ring := "-"
		if n.InRing {
			ring = "yes"
		}
		lastErr := n.LastErr
		if len(lastErr) > 28 {
			lastErr = lastErr[:25] + "…"
		}
		fmt.Printf("%-34s %-8s %-5s %5.1f%% %7d %6d %6d %6d %8s\n",
			name, n.State, ring, 100*shares[n.ID],
			n.Probes, n.Fails, n.Flaps, n.Rejoins, lastErr)
	}

	fmt.Printf("route      local %.0f | remote %.0f | rescued %.0f\n",
		get(`parrot_cluster_route_total{dest="local"}`),
		get(`parrot_cluster_route_total{dest="remote"}`),
		get(`parrot_cluster_route_total{dest="rescued"}`))
	fmt.Printf("forwards   ok %.0f | err %.0f | hop-guard stops %.0f\n",
		get(`parrot_cluster_forwards_total{outcome="ok"}`),
		get(`parrot_cluster_forwards_total{outcome="error"}`),
		get("parrot_cluster_hop_guard_total"))
	fmt.Printf("resilience retries %.0f  reroutes %.0f  recoveries %.0f\n",
		get("parrot_cluster_retries_total"),
		get("parrot_cluster_reroutes_total"),
		get("parrot_cluster_recoveries_total"))
	fmt.Printf("probes     ok %.0f | fail %.0f   transitions alive %.0f / suspect %.0f / dead %.0f   rejoins %.0f\n",
		get(`parrot_cluster_probes_total{outcome="ok"}`),
		get(`parrot_cluster_probes_total{outcome="fail"}`),
		get(`parrot_cluster_transitions_total{to="alive"}`),
		get(`parrot_cluster_transitions_total{to="suspect"}`),
		get(`parrot_cluster_transitions_total{to="dead"}`),
		get("parrot_cluster_rejoins_total"))
}

// verifyOwners asserts that every cache-hit cell of a matrix response was
// served by its ring owner: the cross-node cache-ownership proof. The
// ring is rebuilt client-side from /clusterz (pure function of members ×
// vnodes), so the check is independent of any server claim.
func verifyOwners(ctx context.Context, c *client.Client, resp *proto.MatrixResponse) error {
	st, err := c.Cluster(ctx)
	if err != nil {
		return fmt.Errorf("verify-owners: %w", err)
	}
	if len(st.Members) < 2 {
		return fmt.Errorf("verify-owners: not a cluster (%d ring member(s))", len(st.Members))
	}
	ring := cluster.NewRing(st.Members, st.VNodes)
	hits, violations := 0, []string{}
	for _, cell := range resp.Cells {
		if cell.Disposition != "hit" {
			continue
		}
		hits++
		owner, _ := ring.Owner(cell.Digest)
		if cell.Node != owner {
			violations = append(violations,
				fmt.Sprintf("%s/%s served by %s, owner %s", cell.Model, cell.App, cell.Node, owner))
		}
	}
	if hits == 0 {
		return fmt.Errorf("verify-owners: no cache-hit cells to verify (run against a warm cluster)")
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		return fmt.Errorf("verify-owners: %d/%d hit cells served off-owner:\n  %s",
			len(violations), hits, strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "parrotctl matrix: %d hit cell(s) all served by their ring owners\n", hits)
	return nil
}
