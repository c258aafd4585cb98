package cc

import "testing"

// BenchmarkCCContended measures the step loop under heavy conflict: eight
// threads on one hot 16-word pool, where the scheduler's pick and the
// 2PL wake rule dominate. One op is one Run of 200 committed
// transactions.
func BenchmarkCCContended(b *testing.B) {
	for _, policy := range Policies {
		b.Run(string(policy), func(b *testing.B) {
			r, srcs := contendedRunner(b, policy)
			r.Run(srcs, 400)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(srcs, 200)
			}
		})
	}
}
