package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"esd/internal/apps"
	"esd/internal/telemetry"
)

// pinnedRow is one recorded single-worker search: the headline counters
// plus the sha256 of its deterministic summary (trace events, found
// schedule and inputs; see summarize).
type pinnedRow struct {
	name    string
	found   bool
	steps   int64
	states  int64
	queries int
	sheds   int64
	aging   int64
	pruned  int64
	sum     string
}

func (r pinnedRow) String() string {
	return fmt.Sprintf("{%q, %v, %d, %d, %d, %d, %d, %d, %q},",
		r.name, r.found, r.steps, r.states, r.queries, r.sheds, r.aging, r.pruned, r.sum)
}

// pinnedConfig names one search of the table.
type pinnedConfig struct {
	name string
	app  string
	opts Options
}

// pinnedConfigs lists the table: every app at ESD defaults (ls3 and ls4
// are pinned by TestProfileLs4 and esdbench instead), a shed-forcing grid
// of small state budgets over every strategy, and one run per ablation
// that changes the search order. short trims the shed grid to its
// MaxStates=16 half.
func pinnedConfigs(short bool) []pinnedConfig {
	var out []pinnedConfig
	for _, a := range apps.All() {
		if a.Name == "ls3" || a.Name == "ls4" {
			continue
		}
		out = append(out, pinnedConfig{a.Name, a.Name, Options{Strategy: StrategyESD, Seed: 1}})
	}
	strategies := []Strategy{StrategyESD, StrategyDFS, StrategyRandomPath}
	for _, app := range []string{"ls1", "ls2", "pipeline", "sqlite", "bank"} {
		for _, strat := range strategies {
			for _, ms := range []int{16, 64} {
				if short && ms != 16 {
					continue
				}
				out = append(out, pinnedConfig{
					fmt.Sprintf("%s/%v/shed%d", app, strat, ms), app,
					Options{Strategy: strat, Seed: 1, MaxStates: ms, MaxSteps: 2_000_000},
				})
			}
		}
	}
	return append(out,
		pinnedConfig{"sqlite/noproximity", "sqlite", Options{Strategy: StrategyESD, Seed: 1, Ablate: Ablate{NoProximity: true}}},
		pinnedConfig{"sqlite/binarysched", "sqlite", Options{Strategy: StrategyESD, Seed: 1, Ablate: Ablate{BinarySchedDist: true}}},
		pinnedConfig{"listing1/pb2", "listing1", Options{Strategy: StrategyDFS, Seed: 1, PreemptionBound: 2}},
	)
}

// pinnedTable holds the recorded values of every pinnedConfigs search.
// They pin the single-worker search exactly: picks, sheds, aging cadence
// and trace sampling all feed the hash, so any change to the search order
// shows up here even when the bug is still found.
var pinnedTable = []pinnedRow{
	{"bank", true, 323, 16, 18, 0, 2, 1, "1a6287d1eb71113cd480d537143f172cf3a5b257a53891f946527c4848eb545d"},
	{"condvar", true, 128, 5, 4, 0, 1, 0, "7b0c72bf0e40e0842faf83060768e88cb87436963dfabfc06bbe131bad22a494"},
	{"paste", true, 468, 24, 46, 0, 0, 9, "4e4b978ca16790f756017fc7fa492b97556bf7424cf5f89ee23c6a86874c70bf"},
	{"tac", true, 371, 13, 24, 0, 0, 0, "87fbbf9284f0305a3b353f58ed5aac557c3b1dd296d175890fd213645a6de6cd"},
	{"mkdir", true, 624, 31, 60, 0, 0, 5, "cc73e2bfed9d3e6cd77c48b69fc4d26e878c4d04e5975f1e350bfa2f215e07a7"},
	{"mknod", true, 269, 11, 22, 0, 0, 3, "252ee3ae1e4b3aff7f2c1bf0824ff16dcb120c50e35eb7a74c78e190555d9acb"},
	{"mkfifo", true, 232, 10, 18, 0, 0, 1, "1367bb9e2238e64c0fde2f2e36e975f338c2a1841dcb743b3a4010aa7ba3e6ed"},
	{"ghttpd", true, 30337, 423, 844, 0, 0, 414, "c51853b3e333742ef3d93697d2b1c23c9d18107dbdbb7dc534fb6dc1faa470d1"},
	{"hawknl", true, 629, 20, 19, 0, 5, 2, "b505381cb42177310e33ffa17748f4063ccf65813af9e748f8b1b6406dcdff32"},
	{"listing1", true, 125, 18, 6, 0, 1, 1, "fc2adefd0d409e523d7fd23ac66e0db8a44e856a43cd427b549d2475f5308d39"},
	{"logrot", true, 318, 19, 16, 0, 2, 3, "1a34fbb340d3f2c9618e1165b5c8d6861ce595953d6df93bd3722b4c1e1f67d3"},
	{"ls1", true, 49915, 1793, 3586, 0, 0, 1517, "4bbee81c97e97c1c3b9bcdfe6879ceaf16498e6c10a0179ab476ad5af56fbaa4"},
	{"ls2", true, 10509, 235, 468, 0, 0, 38, "3d70f28be0857d677db192e223aa037d1c188fc7064f45d309fd3f3a04b1cdda"},
	{"pipeline", true, 14573, 1251, 14, 0, 119, 139, "d1515f54d9ccfad4201da76d2446e29f9106c2a983eda924c6818d5abd1e1ca9"},
	{"sqlite", true, 3020, 77, 32, 0, 24, 1, "3971b4a739445d17f029088349f886b9723f205924573ab1763051d8f7e88e30"},
	{"ls1/ESD/shed16", false, 6126, 218, 478, 36, 0, 160, "88f3fe552de1ae101030e1acba5eefb8c763ddfd9b5d5fc59320320b09a5620d"},
	{"ls1/ESD/shed64", false, 19296, 656, 1444, 66, 0, 523, "ce255c0a0e4bc85ba1de4924b27ac4cc36e8c05b9635976970cff9fdde469a30"},
	{"ls1/DFS/shed16", false, 2000003, 404, 806, 180, 0, 0, "f7eea5f28733b7a354a6fa3bea7433c3111129bc3b4807070e7864330f6ccbb4"},
	{"ls1/DFS/shed64", false, 2000003, 1063, 2124, 0, 0, 0, "153b89378eac03657bb0eb41f9b5e8f8b0f07afe87b060d67b8bcb9bb9bc968e"},
	{"ls1/RandPath/shed16", false, 121082, 260, 528, 225, 0, 0, "94af0ac301bfc3087ccb548a090db01419759628885cd9f8ce8140d23a64d93f"},
	{"ls1/RandPath/shed64", false, 1220556, 1586, 8544, 1287, 0, 0, "708ca60274db87b1c8a73158d116465b45903cb12d72cdd8d86df5bf2e481e5f"},
	{"ls2/ESD/shed16", false, 175616, 118, 234, 36, 0, 82, "64530399e6db62cd39753035b1edca63677e597ce3f8b1275c1ec33cd8c4037e"},
	{"ls2/ESD/shed64", false, 2000032, 463, 924, 231, 0, 225, "b4c33086a1b262fd26f34157b2f8b7de4662c784639b1cb252066ea199786f59"},
	{"ls2/DFS/shed16", false, 119931, 51, 100, 9, 0, 0, "c730ceb42e4a80bf348282616d895df3d4193f0d4c903b64e042a7b902d63498"},
	{"ls2/DFS/shed64", false, 2000003, 1063, 2124, 0, 0, 0, "153b89378eac03657bb0eb41f9b5e8f8b0f07afe87b060d67b8bcb9bb9bc968e"},
	{"ls2/RandPath/shed16", false, 9983, 87, 228, 63, 0, 0, "28e0c8f04d52c21f449e2d0c98654acfb050ab5e0dd8ac31721cb14ae6e12f66"},
	{"ls2/RandPath/shed64", false, 360694, 274, 705, 165, 0, 0, "acb9a50638174281df67ccbf3226c0b69dfabcb9f80e98b983c22fe3806e8d76"},
	{"pipeline/ESD/shed16", false, 10683, 803, 8, 212, 86, 118, "a10b49d1ee84375a7fc2990f4653e636d11ad6319b982c2319ee45ffb12d331c"},
	{"pipeline/ESD/shed64", false, 73604, 4120, 10, 531, 587, 1039, "d3553d965d62a98d1cad1b1d69607a4f25174d30de8826701a7c6802909e39e7"},
	{"pipeline/DFS/shed16", false, 2000003, 74014, 6, 454, 0, 0, "2f247310ebb9d429720839af8fe1d8c4cf3647ac095e3ad7032c6824685c0933"},
	{"pipeline/DFS/shed64", false, 2000019, 79447, 4, 0, 0, 0, "5500e370c31c6f45d066b61b0827dea87b9fcc2195006d4efa7120acfee70511"},
	{"pipeline/RandPath/shed16", false, 17750, 1260, 8, 481, 0, 0, "8059e442dee0863ff3dc9beb543c58bac3d79912c326bbfc1a2b0ccbe1032289"},
	{"pipeline/RandPath/shed64", false, 75337, 5354, 170, 1915, 0, 0, "41f66b51cfca92f032aa9524b90bfdd9cb21b57e81c52b42bdc35f71bf216f8c"},
	{"sqlite/ESD/shed16", true, 2043, 57, 28, 27, 16, 0, "a18325d6f536011081b130df57824980e706bb14eecf9840ae0e8ed7af93f45f"},
	{"sqlite/ESD/shed64", true, 3020, 77, 32, 0, 24, 1, "3971b4a739445d17f029088349f886b9723f205924573ab1763051d8f7e88e30"},
	{"sqlite/DFS/shed16", true, 23518, 178, 46, 63, 0, 0, "9db5696d3a74ad0995c740cf1fd4481a37eb84894a0ebd0b44c735f3ed528629"},
	{"sqlite/DFS/shed64", false, 2000027, 8209, 10, 0, 0, 0, "98a5ce3e533202e17ef83a3ba46a1ed46dfa69cae01744c62e606e530433cb71"},
	{"sqlite/RandPath/shed16", false, 13177, 148, 128, 72, 0, 0, "3d6cdf7a4cfd25a68e2b6cfaca9150e468e10e995fc6b335ef93535e4ffec59d"},
	{"sqlite/RandPath/shed64", true, 4131, 123, 26, 33, 0, 0, "e408f991c88d2e0c4f483daa58a04d9bed5a5abd677d518b50ac48437c1751bd"},
	{"bank/ESD/shed16", true, 323, 16, 18, 0, 2, 1, "1a6287d1eb71113cd480d537143f172cf3a5b257a53891f946527c4848eb545d"},
	{"bank/ESD/shed64", true, 323, 16, 18, 0, 2, 1, "1a6287d1eb71113cd480d537143f172cf3a5b257a53891f946527c4848eb545d"},
	{"bank/DFS/shed16", true, 6921, 234, 54, 54, 0, 0, "c69270e2d2e18dfcdf3664fe14e0b36b90ae9c8a9ded9f0f61e48c4e7af2fd09"},
	{"bank/DFS/shed64", false, 2000020, 52156, 48, 0, 0, 0, "ffc092ac960377780e35afda778688f5c98001be55b0e026be1614a4cae2136d"},
	{"bank/RandPath/shed16", true, 867, 58, 48, 28, 0, 0, "243415cafc2a00a6be236cdebf9414d5707edab5c48e1a5a2e37ee8ef2be0108"},
	{"bank/RandPath/shed64", true, 947, 77, 48, 0, 0, 0, "4c62b88362fda244b2aee60671bca40081809b7eafcee8e37ca0fbf384e36d49"},
	{"sqlite/noproximity", true, 8482, 230, 60, 0, 67, 1, "4c521d3eca78624fba7c8dc67316b906f5cc367537866b8225796756505500f0"},
	{"sqlite/binarysched", true, 17402, 317, 126, 0, 138, 1, "ab4d890fc4ecc1ffd98e591e312f2970aa06569ff6c528ae357b4b3c8143f337"},
	{"listing1/pb2", true, 796, 46, 4, 0, 0, 0, "6a5cb4ac049789eb75c4fccea7a4359c446a91aedf608a8b94e4dd2f0b90d9ba"},
}

// TestPinnedSequentialTable runs every pinned configuration and requires
// its counters and summary hash to equal the recorded row. A mismatch
// prints the observed row in table syntax.
func TestPinnedSequentialTable(t *testing.T) {
	for _, c := range pinnedConfigs(testing.Short()) {
		t.Run(c.name, func(t *testing.T) {
			a := apps.Get(c.app)
			prog, err := a.Program()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.Coredump()
			if err != nil {
				t.Fatal(err)
			}
			rec := telemetry.NewRecorder(1 << 16)
			opts := c.opts
			opts.Recorder = rec
			res, err := Synthesize(context.Background(), prog, rep, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256([]byte(summarize(t, res, rec)))
			got := pinnedRow{
				name:    c.name,
				found:   res.Found != nil,
				steps:   res.Steps,
				states:  res.StatesCreated,
				queries: res.SolverQueries,
				sheds:   res.Sheds,
				aging:   res.AgingPicks,
				pruned:  res.Pruned,
				sum:     hex.EncodeToString(h[:]),
			}
			var want pinnedRow
			for _, r := range pinnedTable {
				if r.name == c.name {
					want = r
				}
			}
			if got != want {
				t.Errorf("pinned row mismatch:\n got  %v\n want %v", got, want)
			}
		})
	}
}
