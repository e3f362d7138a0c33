module microfaas/bench

go 1.22

require microfaas v0.0.0

replace microfaas => ../
