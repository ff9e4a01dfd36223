module fastread/cmd/benchreport

go 1.24

require fastread v0.0.0

replace fastread => ../..
